// Package ignore is a lint fixture for the //lint:ignore directive: the
// first two violations are silenced, the third is not, and a malformed
// directive or one naming an unregistered check is itself a finding.
package ignore

func above(x, y float64) bool {
	//lint:ignore floatcmp fixture: exactness is the point here
	return x == y
}

func trailing(x, y float64) bool {
	return x == y //lint:ignore floatcmp fixture: exactness is the point here
}

func unsilenced(x, y float64) bool {
	return x == y // want floatcmp
}

func malformed(x, y float64) bool {
	//lint:ignore floatcmp
	return x == y // want floatcmp (directive above lacks a reason)
}

func misspelled(x, y float64) bool {
	//lint:ignore floatcmp,floatcmpp fixture: the registered name silences, the misspelled one is a finding
	return x == y
}
