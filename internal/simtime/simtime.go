// Package simtime maps virtual simulation time onto reproducible wall-clock
// timestamps. Log writers must emit real-looking timestamps (Apache access
// logs, SAR reports, MySQL slow-query logs), and the transformation
// pipeline parses them back; anchoring every run at a fixed epoch keeps
// runs byte-for-byte reproducible.
package simtime

import "time"

// Epoch is the wall-clock instant corresponding to virtual time zero. The
// date matches the paper's experiment era; the value itself is arbitrary
// but must never change within a run.
var Epoch = time.Date(2017, time.April, 1, 0, 0, 0, 0, time.UTC)

// Wall converts a virtual time offset to a wall-clock instant, applying a
// per-node clock offset (simulated NTP error). Event monitors stamp with
// their node's skewed clock, which is why cross-node timestamps in real
// systems never align perfectly.
func Wall(t time.Duration, nodeOffset time.Duration) time.Time {
	return Epoch.Add(t + nodeOffset)
}

// Micros returns the microsecond epoch representation used by the extended
// Apache log fields (UA/UD/DS/DR).
func Micros(w time.Time) int64 { return w.UnixMicro() }
