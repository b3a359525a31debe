//go:build race

package api

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = true
