package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Annotation directives are declarations about code, distinct from
// //lint:ignore suppressions. They drive the dataflow analyzers:
//
//	//lint:frozen <reason>            struct field or type declaration:
//	                                  immutable once published (COW state)
//	//lint:freezer <reason>           function: whitelisted to mutate
//	                                  frozen state (constructors, freeze/
//	                                  copy-on-write transitions)
//	//lint:hotpath <reason>           function: zero steady-state
//	                                  allocations (append into pre-sized
//	                                  arenas excepted — the AllocsPerRun
//	                                  pins own amortised growth)
//	//lint:hotpath=bounded <reason>   function: small bounded allocation
//	                                  budget; only closures and goroutine
//	                                  launches are flagged statically, the
//	                                  dsctalint -escape gate and the
//	                                  AllocsPerRun pins own the rest
//
// frozen/freezer feed the cowsafety analyzer; hotpath feeds hotalloc and
// the `dsctalint -escape` escape-analysis gate. The reason is mandatory;
// a bare or misplaced directive is reported by the unit that owns the file.
const (
	frozenDirective  = "//lint:frozen"
	freezerDirective = "//lint:freezer"
	hotpathDirective = "//lint:hotpath"
)

// hotKind distinguishes the two hotpath contracts.
type hotKind int

const (
	hotStrict  hotKind = iota // no allocation sites at all
	hotBounded                // bounded setup allocation; closures/go still banned
)

func (k hotKind) String() string {
	if k == hotBounded {
		return "hotpath=bounded"
	}
	return "hotpath"
}

// hotpathSite is one //lint:hotpath-annotated function declaration,
// carrying the source range the escape gate attributes diagnostics to.
type hotpathSite struct {
	fn         *types.Func
	kind       hotKind
	reason     string
	display    string // module-shortened qualified name, e.g. (*internal/lp.luFactor).ftran
	file       string // absolute path of the declaring file
	test       bool   // declared in a _test.go file (invisible to `go build`)
	start, end int    // line range of the declaration
}

// frozenMark is one //lint:frozen annotation target.
type frozenMark struct {
	desc   string // e.g. "frozen field (lp.Basis).fac" or "frozen type mip.fixChain"
	reason string
}

// annotIndex is the loader-global annotation registry. Files can be
// type-checked more than once (once as an import dependency, once as a
// lint unit): object-keyed entries are inserted per check universe,
// position-keyed entries are deduplicated by file:line.
type annotIndex struct {
	frozen    map[types.Object]*frozenMark
	freezer   map[types.Object]string
	hot       map[types.Object]*hotpathSite
	sites     []*hotpathSite
	siteAt    map[string]bool       // "file:line" of recorded sites
	malformed map[string]Diagnostic // "file:line" -> diagnostic
}

func newAnnotIndex() *annotIndex {
	return &annotIndex{
		frozen:    map[types.Object]*frozenMark{},
		freezer:   map[types.Object]string{},
		hot:       map[types.Object]*hotpathSite{},
		siteAt:    map[string]bool{},
		malformed: map[string]Diagnostic{},
	}
}

// annotComment is one parsed annotation directive.
type annotComment struct {
	c      *ast.Comment
	kind   string // "frozen", "freezer" or "hotpath"
	hot    hotKind
	reason string
	bad    string // non-empty: malformed, with the message to report
}

// parseAnnot recognises annotation comments; ok is false for every other
// comment (including //lint:ignore suppressions).
func parseAnnot(c *ast.Comment) (annotComment, bool) {
	a := annotComment{c: c}
	var rest string
	switch text := c.Text; {
	case strings.HasPrefix(text, freezerDirective):
		a.kind, rest = "freezer", text[len(freezerDirective):]
	case strings.HasPrefix(text, frozenDirective):
		a.kind, rest = "frozen", text[len(frozenDirective):]
	case strings.HasPrefix(text, hotpathDirective):
		a.kind, rest = "hotpath", text[len(hotpathDirective):]
	default:
		return a, false
	}
	if a.kind == "hotpath" && strings.HasPrefix(rest, "=") {
		mode := rest
		if i := strings.IndexAny(rest, " \t"); i >= 0 {
			mode, rest = rest[:i], rest[i:]
		} else {
			rest = ""
		}
		if mode != "=bounded" {
			a.bad = fmt.Sprintf("unknown hotpath mode %q: want //lint:hotpath or //lint:hotpath=bounded", mode)
			return a, true
		}
		a.hot = hotBounded
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return a, false // longer word sharing the prefix, not a directive
	}
	a.reason = strings.TrimSpace(rest)
	if a.reason == "" {
		a.bad = fmt.Sprintf("annotation //lint:%s needs a reason: //lint:%s <reason>", a.kind, a.kind)
	}
	return a, true
}

// annotsIn extracts the annotation directives of a comment group.
func annotsIn(cg *ast.CommentGroup) []annotComment {
	if cg == nil {
		return nil
	}
	var out []annotComment
	for _, c := range cg.List {
		if a, ok := parseAnnot(c); ok {
			out = append(out, a)
		}
	}
	return out
}

func (ai *annotIndex) noteMalformed(fset *token.FileSet, pos token.Pos, msg string) {
	p := fset.Position(pos)
	key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
	if _, ok := ai.malformed[key]; ok {
		return
	}
	ai.malformed[key] = Diagnostic{Pos: p, Analyzer: "dsctalint", Message: msg}
}

// collectAnnots registers every annotation in f. It runs after a
// successful type-check, so info is complete. modPath shortens qualified
// names in reports.
func (ai *annotIndex) collectAnnots(fset *token.FileSet, f *ast.File, info *types.Info, modPath string) {
	consumed := map[*ast.Comment]bool{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			ai.collectFuncAnnots(fset, d, info, modPath, consumed)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					ai.collectTypeAnnots(fset, d, ts, info, consumed)
				}
			}
		}
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if _, ok := parseAnnot(c); ok && !consumed[c] {
				ai.noteMalformed(fset, c.Pos(),
					"misplaced annotation: //lint:frozen applies to struct fields and type declarations; //lint:freezer and //lint:hotpath apply to function declarations")
			}
		}
	}
}

// collectFuncAnnots handles //lint:freezer and //lint:hotpath on a
// function declaration's doc comment.
func (ai *annotIndex) collectFuncAnnots(fset *token.FileSet, d *ast.FuncDecl, info *types.Info, modPath string, consumed map[*ast.Comment]bool) {
	fn, _ := info.Defs[d.Name].(*types.Func)
	for _, a := range annotsIn(d.Doc) {
		consumed[a.c] = true
		switch {
		case a.bad != "":
			ai.noteMalformed(fset, a.c.Pos(), a.bad)
		case a.kind == "frozen":
			ai.noteMalformed(fset, a.c.Pos(), "//lint:frozen applies to struct fields and type declarations, not functions")
		case fn == nil:
			// type error elsewhere; nothing to attach to
		case a.kind == "freezer":
			ai.freezer[fn] = a.reason
		default: // hotpath
			pos := fset.Position(d.Pos())
			site := &hotpathSite{
				fn:      fn,
				kind:    a.hot,
				reason:  a.reason,
				display: shortFuncName(fn, modPath),
				file:    pos.Filename,
				test:    strings.HasSuffix(pos.Filename, "_test.go"),
				start:   pos.Line,
				end:     fset.Position(d.End()).Line,
			}
			ai.hot[fn] = site
			key := fmt.Sprintf("%s:%d", site.file, site.start)
			if !ai.siteAt[key] {
				ai.siteAt[key] = true
				ai.sites = append(ai.sites, site)
			}
		}
	}
}

// collectTypeAnnots handles //lint:frozen on type declarations and on the
// fields of top-level struct types.
func (ai *annotIndex) collectTypeAnnots(fset *token.FileSet, d *ast.GenDecl, ts *ast.TypeSpec, info *types.Info, consumed map[*ast.Comment]bool) {
	groups := []*ast.CommentGroup{ts.Doc, ts.Comment}
	if len(d.Specs) == 1 {
		groups = append(groups, d.Doc)
	}
	tn, _ := info.Defs[ts.Name].(*types.TypeName)
	for _, g := range groups {
		for _, a := range annotsIn(g) {
			consumed[a.c] = true
			switch {
			case a.bad != "":
				ai.noteMalformed(fset, a.c.Pos(), a.bad)
			case a.kind != "frozen":
				ai.noteMalformed(fset, a.c.Pos(), fmt.Sprintf("//lint:%s applies to function declarations, not types", a.kind))
			case tn != nil:
				ai.frozen[tn] = &frozenMark{
					desc:   fmt.Sprintf("frozen type %s.%s", pkgShort(tn.Pkg()), tn.Name()),
					reason: a.reason,
				}
			}
		}
	}
	st, ok := ts.Type.(*ast.StructType)
	if !ok || st.Fields == nil {
		return
	}
	for _, field := range st.Fields.List {
		for _, g := range []*ast.CommentGroup{field.Doc, field.Comment} {
			for _, a := range annotsIn(g) {
				consumed[a.c] = true
				switch {
				case a.bad != "":
					ai.noteMalformed(fset, a.c.Pos(), a.bad)
				case a.kind != "frozen":
					ai.noteMalformed(fset, a.c.Pos(), fmt.Sprintf("//lint:%s applies to function declarations, not struct fields", a.kind))
				case len(field.Names) == 0:
					ai.noteMalformed(fset, a.c.Pos(), "//lint:frozen on an embedded field is not supported: name the field or freeze the embedded type")
				default:
					for _, name := range field.Names {
						if obj := info.Defs[name]; obj != nil {
							ai.frozen[obj] = &frozenMark{
								desc:   fmt.Sprintf("frozen field (%s.%s).%s", pkgShort(obj.Pkg()), ts.Name.Name, name.Name),
								reason: a.reason,
							}
						}
					}
				}
			}
		}
	}
}

// malformedFor returns the malformed-annotation diagnostics recorded in
// the unit's own files, in deterministic order.
func (ai *annotIndex) malformedFor(files []*ast.File, fset *token.FileSet) []Diagnostic {
	names := map[string]bool{}
	for _, f := range files {
		names[fset.Position(f.Pos()).Filename] = true
	}
	var keys []string
	for key, d := range ai.malformed {
		if names[d.Pos.Filename] {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	out := make([]Diagnostic, 0, len(keys))
	for _, key := range keys {
		out = append(out, ai.malformed[key])
	}
	return out
}

// frozenObj returns the frozen mark of a field or type-name object.
func (ai *annotIndex) frozenObj(obj types.Object) (*frozenMark, bool) {
	if ai == nil || obj == nil {
		return nil, false
	}
	m, ok := ai.frozen[obj]
	return m, ok
}

// frozenNamed returns the frozen mark when t is (a pointer to) a
// //lint:frozen named type.
func (ai *annotIndex) frozenNamed(t types.Type) (*frozenMark, bool) {
	if ai == nil || t == nil {
		return nil, false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return nil, false
	}
	m, ok := ai.frozen[n.Obj()]
	return m, ok
}

// isFreezer reports whether fn carries //lint:freezer.
func (ai *annotIndex) isFreezer(fn *types.Func) bool {
	if ai == nil || fn == nil {
		return false
	}
	_, ok := ai.freezer[fn]
	return ok
}

// hotOf returns fn's hotpath site, or nil.
func (ai *annotIndex) hotOf(fn *types.Func) *hotpathSite {
	if ai == nil || fn == nil {
		return nil
	}
	return ai.hot[fn]
}

// shortFuncName renders fn's qualified name with the module path stripped:
// (*internal/lp.luFactor).ftran, internal/lp.SolveFrom.
func shortFuncName(fn *types.Func, modPath string) string {
	name := fn.FullName()
	if modPath != "" {
		name = strings.ReplaceAll(name, modPath+"/", "")
		name = strings.ReplaceAll(name, modPath+".", ".")
	}
	return name
}

// pkgShort returns the package's short name for report messages.
func pkgShort(pkg *types.Package) string {
	if pkg == nil {
		return "_"
	}
	return pkg.Name()
}
