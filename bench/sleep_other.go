//go:build !linux

package main

import "time"

// sleepUntil blocks until t (see sleep_linux.go for why Linux does
// not use the Go timer).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
