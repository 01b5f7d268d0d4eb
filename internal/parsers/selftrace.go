package parsers

import (
	"io"
	"time"
)

// selftraceParser parses milliScope's own telemetry log (internal/selfobs
// emits it, see selfobs.FormatLine): one space-separated token line per
// span or counter snapshot. The format is fixed by the emitter, so —
// like the slow-log parser — the parser carries its own instruction set
// and honors only the caller's Const fields (the transformer injects the
// host there). It is a thin veneer over the generic token machinery, which
// gives it degraded mode for free.
var selftraceParser = degradable{format{"selftrace", parseSelfTrace}}

// selfTraceInstructions declares the self-telemetry log line.
func selfTraceInstructions() Instructions {
	return Instructions{
		Pattern: `^(?P<ltime>\S+) mscope-self kind=(?P<kind>span|counter) batch=(?P<batch>\S+) pipeline=(?P<pipeline>\S+) stage=(?P<stage>\S+) span=(?P<span>\S+) file=(?P<file>\S+) dur_us=(?P<dur_us>\d+) items=(?P<items>-?\d+) errs=(?P<errs>\d+)$`,
		Times: []TimeRule{
			{Field: "ltime", Layout: time.RFC3339Nano},
		},
	}
}

func parseSelfTrace(in io.Reader, instr Instructions, sink Sink, rec Recover) error {
	fixed := selfTraceInstructions()
	fixed.Const = instr.Const
	return parseToken(in, fixed, sink, rec)
}
