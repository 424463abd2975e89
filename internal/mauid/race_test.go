//go:build race

package mauid

// raceEnabled lets the allocation guard skip under the race detector,
// whose instrumentation allocates on its own.
const raceEnabled = true
