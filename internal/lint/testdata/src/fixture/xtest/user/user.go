// Package user depends on base, so base's external test sees base
// through it as well as directly.
package user

import "fixture/xtest/base"

// Make builds a base.T.
func Make() *base.T { return base.New() }
