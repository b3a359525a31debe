//go:build !race

package api

// raceEnabled reports whether this binary was built with -race; the
// allocation guard skips its budget there (the detector's shadow
// bookkeeping inflates counts).
const raceEnabled = false
