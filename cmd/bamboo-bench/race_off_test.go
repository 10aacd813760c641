//go:build !race

package main

// raceEnabled reports whether this binary was built with the race
// detector.
const raceEnabled = false
