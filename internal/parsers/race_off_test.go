//go:build !race

package parsers

const raceEnabled = false
