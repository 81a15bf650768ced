package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// The escape gate is the dynamic half of the hot-path allocation
// contract: it rebuilds the module with `go build -gcflags=-m`, parses
// the compiler's escape-analysis diagnostics, and attributes every
// "escapes to heap"/"moved to heap" line that falls inside a
// //lint:hotpath function to that function. The committed
// LINT_ESCAPE.json baseline records the accepted escapes (the bounded
// hot paths legitimately allocate on setup and error paths); verify.sh
// diffs fresh output against it, so a *new* heap escape in a hot kernel
// fails verification before any benchmark notices. Baseline entries are
// keyed by (function, message), not line numbers, so unrelated edits to
// the same file do not invalidate them.

// EscapeFinding is one compiler-reported heap escape inside a
// //lint:hotpath function.
type EscapeFinding struct {
	Func    string `json:"func"`    // module-shortened qualified name
	File    string `json:"file"`    // module-relative path
	Line    int    `json:"line"`    // line at the time of recording (informational)
	Message string `json:"message"` // compiler diagnostic, e.g. "make([]float64, m) escapes to heap"
}

func (f EscapeFinding) key() string { return f.Func + "\x00" + f.Message }

// String renders the finding like a diagnostic.
func (f EscapeFinding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s (escape)", f.File, f.Line, f.Func, f.Message)
}

// EscapeBaseline is the LINT_ESCAPE.json schema.
type EscapeBaseline struct {
	Note    string          `json:"note,omitempty"`
	Go      string          `json:"go,omitempty"` // toolchain that recorded the baseline
	Escapes []EscapeFinding `json:"escapes"`
}

// EscapeFindings loads the packages in dirs, registers their
// //lint:hotpath sites, rebuilds the packages that declare one with
// -gcflags=-m and returns the heap escapes attributed to hotpath functions
// plus the number of hotpath sites checked. Test files are excluded: `go
// build` does not compile them, so their hot paths are invisible to the
// compiler pass.
func EscapeFindings(dirs []string) ([]EscapeFinding, int, error) {
	loader, err := NewLoader()
	if err != nil {
		return nil, 0, err
	}
	return escapeFindings(loader, dirs)
}

// escapeFindings is EscapeFindings on a loader rooted at any module.
func escapeFindings(loader *Loader, dirs []string) ([]EscapeFinding, int, error) {
	requested := map[string]bool{}
	for _, dir := range dirs {
		if _, err := loader.LoadDir(dir); err != nil {
			return nil, 0, err
		}
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, 0, err
		}
		requested[abs] = true
	}
	// Only a package declaring a non-test site can produce a finding, so
	// only those are built; this also keeps a directory that belongs to a
	// nested module (which `go build` rejects) out of the build.
	var sites []*hotpathSite
	hot := map[string]bool{}
	for _, site := range loader.annots.sites {
		if dir := filepath.Dir(site.file); !site.test && requested[dir] {
			sites = append(sites, site)
			hot[dir] = true
		}
	}
	if len(sites) == 0 {
		return nil, 0, nil
	}
	pkgs := make([]string, 0, len(hot))
	for dir := range hot {
		rel, err := filepath.Rel(loader.ModRoot(), dir)
		if err != nil {
			return nil, 0, err
		}
		pkgs = append(pkgs, "./"+filepath.ToSlash(rel))
	}
	sort.Strings(pkgs)
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m"}, pkgs...)...)
	cmd.Dir = loader.ModRoot()
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, 0, fmt.Errorf("go build -gcflags=-m: %w\n%s", err, out)
	}
	findings := parseEscapeOutput(string(out), loader.ModRoot(), sites)
	return findings, len(sites), nil
}

// parseEscapeOutput extracts the escape diagnostics that land inside a
// hotpath site. Lines look like
//
//	internal/lp/factor.go:123:14: make([]float64, m) escapes to heap
//
// with paths relative to the module root (the build's working directory)
// and "# pkgpath" group headers interspersed.
func parseEscapeOutput(out, modRoot string, sites []*hotpathSite) []EscapeFinding {
	var findings []EscapeFinding
	seen := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		file, lineNo, msg, ok := splitDiagLine(line)
		if !ok {
			continue
		}
		abs := filepath.Join(modRoot, filepath.FromSlash(file))
		for _, site := range sites {
			if site.file == abs && lineNo >= site.start && lineNo <= site.end {
				f := EscapeFinding{Func: site.display, File: file, Line: lineNo, Message: msg}
				if !seen[f.key()] {
					seen[f.key()] = true
					findings = append(findings, f)
				}
				break
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Func != findings[j].Func {
			return findings[i].Func < findings[j].Func
		}
		return findings[i].Message < findings[j].Message
	})
	return findings
}

// splitDiagLine parses "path:line:col: message".
func splitDiagLine(line string) (file string, lineNo int, msg string, ok bool) {
	parts := strings.SplitN(line, ":", 4)
	if len(parts) != 4 {
		return "", 0, "", false
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil {
		return "", 0, "", false
	}
	if _, err := strconv.Atoi(parts[2]); err != nil {
		return "", 0, "", false
	}
	return parts[0], n, strings.TrimSpace(parts[3]), true
}

// LoadEscapeBaseline reads a LINT_ESCAPE.json file.
func LoadEscapeBaseline(path string) (*EscapeBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b EscapeBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// WriteEscapeBaseline records findings as the new baseline at path.
func WriteEscapeBaseline(path string, findings []EscapeFinding) error {
	b := EscapeBaseline{
		Note:    "accepted heap escapes inside //lint:hotpath functions; regenerate with `dsctalint -escape -baseline " + filepath.Base(path) + " -write ./...`",
		Go:      runtime.Version(),
		Escapes: findings,
	}
	if b.Escapes == nil {
		b.Escapes = []EscapeFinding{}
	}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// DiffEscapes splits fresh findings against a baseline into new escapes
// (fail the gate) and stale baseline entries (warn: the escape no longer
// happens, the baseline can be regenerated).
func DiffEscapes(found []EscapeFinding, baseline *EscapeBaseline) (news, stale []EscapeFinding) {
	inBase := map[string]bool{}
	for _, f := range baseline.Escapes {
		inBase[f.key()] = true
	}
	fresh := map[string]bool{}
	for _, f := range found {
		fresh[f.key()] = true
		if !inBase[f.key()] {
			news = append(news, f)
		}
	}
	for _, f := range baseline.Escapes {
		if !fresh[f.key()] {
			stale = append(stale, f)
		}
	}
	return news, stale
}
