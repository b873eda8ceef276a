//go:build race

package aisle

// raceEnabled reports a -race build: its instrumentation moves some values
// to the heap, so absolute allocation ceilings do not apply.
const raceEnabled = true
