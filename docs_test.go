package pmv_test

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"pmv/internal/torture"
)

// The documents whose references TestDocsReferencesExist holds to the
// tree.
var docFiles = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md",
}

var (
	// A path under one of the source roots: directory segments and an
	// optional file name. `internal/server.Metrics` stops at the
	// package, `internal/...` at the root.
	docPathRe = regexp.MustCompile(`\b(?:cmd|internal|examples|bench|client)(?:/[A-Za-z0-9_-]+)*(?:\.(?:go|md|sh|json|txt)\b)?`)
	// A data file at the repository root.
	docRootFileRe = regexp.MustCompile("(?:^|[\\s`(])(BENCH_\\w+\\.json|\\w+\\.txt)\\b")
	// `make a b c` inside a code span or a code line.
	docMakeRe = regexp.MustCompile(`(?:^|[\s;&])make((?: +[a-z][a-z0-9-]*)+)`)
	// -fig is a pmvbench flag only; ablation-{a,b} names several.
	docFigRe = regexp.MustCompile(`-fig +([A-Za-z0-9]+(?:-[a-z]+)*)(?:-\{([a-z,]+)\})?`)
	// -scenario is a pmvtorture flag only.
	docScenarioRe = regexp.MustCompile(`-scenario +([a-z][a-z-]*)`)

	docSpanRe     = regexp.MustCompile("`([^`]+)`")
	makeTargetRe  = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	pmvbenchFigRe = regexp.MustCompile(`\brun\("([^"]+)"`)
)

// generatedPrefix is written by `go run ./bench` and ignored by git, so
// a checkout need not have it.
const generatedPrefix = "bench/out/"

// docCode returns the parts of a Markdown document that are code:
// fenced and indented lines, and inline spans (which may wrap).
func docCode(text string) []string {
	var code, prose []string
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced || strings.HasPrefix(line, "    "):
			code = append(code, line)
		default:
			prose = append(prose, line)
		}
	}
	for _, m := range docSpanRe.FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
		code = append(code, strings.Join(strings.Fields(m[1]), " "))
	}
	return code
}

// TestDocsReferencesExist fails when a document names a source path,
// root data file, make target, pmvbench figure or pmvtorture scenario
// that is not there.
func TestDocsReferencesExist(t *testing.T) {
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	targets := map[string]bool{}
	for _, m := range makeTargetRe.FindAllStringSubmatch(read("Makefile"), -1) {
		targets[m[1]] = true
	}
	figs := map[string]bool{"all": true}
	for _, m := range pmvbenchFigRe.FindAllStringSubmatch(read("cmd/pmvbench/main.go"), -1) {
		figs[m[1]] = true
	}
	// pmvtorture runs the chaos table's rows, the two harnesses outside
	// it, and all of them.
	scenarios := map[string]bool{"storage": true, "snap": true, "all": true}
	for _, sc := range torture.Scenarios {
		scenarios[sc.Name] = true
	}
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}

	for _, doc := range docFiles {
		text := read(doc)
		for _, p := range docPathRe.FindAllString(text, -1) {
			if !strings.HasPrefix(p, generatedPrefix) && !exists(p) {
				t.Errorf("%s: path %s does not exist", doc, p)
			}
		}
		for _, m := range docRootFileRe.FindAllStringSubmatch(text, -1) {
			if !exists(m[1]) {
				t.Errorf("%s: root file %s does not exist", doc, m[1])
			}
		}
		for _, m := range docFigRe.FindAllStringSubmatch(text, -1) {
			names := []string{m[1]}
			if m[2] != "" {
				names = names[:0]
				for _, alt := range strings.Split(m[2], ",") {
					names = append(names, m[1]+"-"+alt)
				}
			}
			for _, name := range names {
				if !figs[name] {
					t.Errorf("%s: pmvbench has no -fig %s", doc, name)
				}
			}
		}
		for _, m := range docScenarioRe.FindAllStringSubmatch(text, -1) {
			if !scenarios[m[1]] {
				t.Errorf("%s: pmvtorture has no -scenario %s", doc, m[1])
			}
		}
		for _, code := range docCode(text) {
			for _, m := range docMakeRe.FindAllStringSubmatch(code, -1) {
				for _, target := range strings.Fields(m[1]) {
					if !targets[target] {
						t.Errorf("%s: Makefile has no target %s", doc, target)
					}
				}
			}
		}
	}
}
