//go:build !race

package mauid

const raceEnabled = false
