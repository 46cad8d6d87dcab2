package base_test

import (
	"testing"

	"fixture/xtest/base"
	"fixture/xtest/user"
)

func TestIdentity(t *testing.T) {
	var v *base.T = user.Make()
	if base.N(v) != 1 {
		t.Fail()
	}
}
