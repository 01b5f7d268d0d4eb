package main

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func lintSource(t *testing.T, src string) []finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return lintFile(fset, f)
}

const header = `package p
import (
	"fmt"
	"strconv"
	"github.com/gt-elba/milliscope/internal/selfobs"
)
var _ = fmt.Sprint
var _ = strconv.Itoa
`

func TestCleanHotPathUsagePasses(t *testing.T) {
	src := header + `
func f(name string) {
	obs := selfobs.NewBuf()
	defer obs.Close()
	sp := obs.Begin(selfobs.PipeIngest, "parse", "whole", name)
	sp.End(1, 0)
	sp2 := selfobs.Begin(selfobs.PipeIngest, "append", "seq", name)
	sp2.End(0, 0)
	c := selfobs.NewCounter(selfobs.PipeLive, "append", "rows")
	c.Add(1)
	_ = selfobs.Enabled()
}
`
	if got := lintSource(t, src); len(got) != 0 {
		t.Fatalf("clean usage flagged: %v", got)
	}
}

func TestNonWhitelistedCallFlagged(t *testing.T) {
	src := `package p
import (
	"time"
	"github.com/gt-elba/milliscope/internal/selfobs"
)
func f() {
	_ = selfobs.FormatLine(time.Time{}, "b", selfobs.Rec{})
}
`
	got := lintSource(t, src)
	if len(got) != 1 || !strings.Contains(got[0].msg, "FormatLine") {
		t.Fatalf("FormatLine not flagged: %v", got)
	}
}

func TestComputedLabelsFlagged(t *testing.T) {
	src := header + `
func f(i int, obs *selfobs.Buf, name string) {
	sp := obs.Begin(selfobs.PipeIngest, "parse", "w"+strconv.Itoa(i), name)
	sp.End(0, 0)
	sp2 := selfobs.Begin(selfobs.PipeIngest, "parse", fmt.Sprintf("f%d", i), name)
	sp2.End(0, 0)
}
`
	got := lintSource(t, src)
	// "s"+strconv.Itoa(i) is two findings (concat + builder call); the
	// Sprintf label is a third.
	if len(got) != 3 {
		t.Fatalf("got %d findings, want 3: %v", len(got), got)
	}
}

func TestFileWithoutSelfobsIgnored(t *testing.T) {
	src := `package p
import "fmt"
func Begin(a, b, c, d string) {}
func f() {
	Begin("a"+"b", fmt.Sprint(1), "c", "d")
}
`
	if got := lintSource(t, src); len(got) != 0 {
		t.Fatalf("file without selfobs import flagged: %v", got)
	}
}

func TestAliasedImportChecked(t *testing.T) {
	src := `package p
import obs "github.com/gt-elba/milliscope/internal/selfobs"
import "time"
func f() {
	_ = obs.FormatLine(time.Time{}, "b", obs.Rec{})
}
`
	got := lintSource(t, src)
	if len(got) != 1 {
		t.Fatalf("aliased import not checked: %v", got)
	}
}
