// Package base is imported by its own external test both directly and
// through package user.
package base

// T is the type both import routes must agree on.
type T struct{ n int }

// New returns a T.
func New() *T { return &T{n: 1} }
