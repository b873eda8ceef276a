//go:build !race

package aisle

const raceEnabled = false
