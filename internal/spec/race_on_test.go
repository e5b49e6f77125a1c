//go:build race

package spec_test

// See race_off_test.go.
const raceEnabled = true
