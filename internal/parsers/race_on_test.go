//go:build race

package parsers

// raceEnabled: the race detector makes sync.Pool drop a quarter of what it is
// given, so a count of allocations through a pool means nothing under it.
const raceEnabled = true
