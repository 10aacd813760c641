//go:build race

package main

// raceEnabled reports that this binary was built with the race
// detector, whose instrumentation slows replicas and clients far below
// the rates and timers the figures declare.
const raceEnabled = true
