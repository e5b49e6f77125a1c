//go:build !race

package spec_test

// raceEnabled reports whether the race detector instruments this build.
// Allocation gates skip under instrumentation: the detector itself
// allocates on the paths it shadows.
const raceEnabled = false
