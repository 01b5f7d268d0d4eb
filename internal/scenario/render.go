package scenario

import (
	"fmt"
	"strings"

	"github.com/gt-elba/milliscope/internal/core"
)

// RenderList formats the catalogue as the fixed-width table `mscope
// scenario list` prints. The output is golden-pinned: catalogue drift must
// show up as a reviewed diff.
func RenderList(specs []core.Spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-24s %-28s %s\n", "SCENARIO", "FAMILY", "EXPECTED VERDICT", "DESCRIPTION")
	for i := range specs {
		s := &specs[i]
		fmt.Fprintf(&b, "%-12s %-24s %-28s %s\n",
			s.Name, s.Family, renderExpect(s), s.Description)
	}
	fmt.Fprintf(&b, "%d scenarios registered\n", len(specs))
	return b.String()
}

func renderExpect(s *core.Spec) string {
	if len(s.Expect) == 0 {
		return "(clean run)"
	}
	parts := make([]string, 0, len(s.Expect))
	for _, e := range s.Expect {
		v := e.Kind + "@" + e.Node
		if e.Degraded {
			v += " (degraded)"
		}
		parts = append(parts, v)
	}
	return strings.Join(parts, ", ")
}
