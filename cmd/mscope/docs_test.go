package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// The documents whose `mscope <cmd> … --flag` lines must name flags that
// command takes, relative to this package.
var commandDocs = []string{"../../README.md", "../../DESIGN.md", "../../EXPERIMENTS.md",
	"../../.claude/skills/verify/SKILL.md"}

var (
	docFence   = regexp.MustCompile("(?ms)^```.*?^```")
	docSpan    = regexp.MustCompile("`([^`\n]+)`")
	invocation = regexp.MustCompile(`(?:^|[\s/])mscope\s+([a-z][a-z-]*)(?:\s+([a-z][a-z-]*))?`)
	docFlag    = regexp.MustCompile(`(?:^|\s)--([a-z][a-z0-9-]*)`)
	// Shell punctuation that ends one command: pipes, lists, background,
	// subshells and comments.
	commandEnd = regexp.MustCompile(`\|\|?|&&?|;|\(|\)|#`)
)

// commandLines returns a document's shell commands: each line of its
// fenced blocks (backslash continuations joined) and each inline code
// span, split at shell punctuation.
func commandLines(text string) []string {
	var lines []string
	for _, block := range docFence.FindAllString(text, -1) {
		lines = append(lines, strings.Split(strings.ReplaceAll(block, "\\\n", " "), "\n")...)
	}
	for _, m := range docSpan.FindAllStringSubmatch(docFence.ReplaceAllString(text, ""), -1) {
		lines = append(lines, m[1])
	}
	var out []string
	for _, line := range lines {
		out = append(out, commandEnd.Split(line, -1)...)
	}
	return out
}

// undefinedFlags lists each `mscope <cmd> … --flag` in text whose command
// has no such flag (a scenario command names its subcommand), by the
// command as written; flags is the flag set of a command, ok false when
// there is none.
func undefinedFlags(text string, flags func(cmd ...string) (map[string]string, bool)) []string {
	var bad []string
	for _, line := range commandLines(text) {
		at := invocation.FindStringSubmatchIndex(line)
		if at == nil {
			continue
		}
		cmd := []string{line[at[2]:at[3]]}
		if cmd[0] == "scenario" && at[4] >= 0 {
			cmd = append(cmd, line[at[4]:at[5]])
		}
		given := docFlag.FindAllStringSubmatch(line[at[3]:], -1)
		if len(given) == 0 {
			continue
		}
		defined, ok := flags(cmd...)
		for _, f := range given {
			if !ok || defined[f[1]] == "" {
				bad = append(bad, "mscope "+strings.Join(cmd, " ")+" --"+f[1])
			}
		}
	}
	return bad
}

// TestDocumentedFlagsBelongToTheirCommand: every `mscope <cmd> … --flag`
// the documents write, in code blocks and inline code, names a flag that
// command (or scenario subcommand) defines — a flag defined under some
// other command does not count.
func TestDocumentedFlagsBelongToTheirCommand(t *testing.T) {
	cache := map[string]map[string]string{}
	flags := func(cmd ...string) (map[string]string, bool) {
		key := strings.Join(cmd, " ")
		if f, seen := cache[key]; seen {
			return f, f != nil
		}
		f, ok := flagsOf(t, cmd...)
		cache[key] = f
		return f, ok
	}
	// The check must see a flag that exists, but under another command.
	if bad := undefinedFlags("`mscope chaos --overload 'at=0.1,until=0.4,factor=12'`", flags); len(bad) != 1 {
		t.Fatalf("a planted `mscope chaos --overload` reads as %q", bad)
	}
	if bad := undefinedFlags("```sh\nmscope scenario verify --all \\\n    --live | head\n```\n", flags); len(bad) != 0 {
		t.Fatalf("a valid scenario command reads as %q", bad)
	}
	for _, doc := range commandDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range undefinedFlags(string(text), flags) {
			t.Errorf("%s: `%s`: the command has no such flag", doc, b)
		}
	}
	if len(cache) < 10 {
		t.Errorf("the documents name only %d commands with flags: %v", len(cache), cache)
	}
}
