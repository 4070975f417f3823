package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package of the universe
// under analysis. Test files (_test.go) are deliberately not loaded: every
// rule is scoped to library code, and leaving tests out keeps external
// test packages (package foo_test) from complicating the type-check.
type Package struct {
	Path  string // import path within the loaded universe
	Dir   string // absolute directory
	Name  string // package name from the source
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// SoftErrors are type-checker complaints tolerated during loading
	// (the rules still run on everything that resolved).
	SoftErrors []error
	// Universe links back to the run this package was loaded into, so
	// whole-program rules (lock-order, goroutine-lifecycle) can reach the
	// shared call-graph summaries from a per-package Check.
	Universe *Universe
}

// IsMain reports whether this is a main package (cmd/, examples/) —
// several rules exempt binaries and apply to library code only.
func (p *Package) IsMain() bool { return p.Name == "main" }

// Universe is the full set of packages one analyzer run sees.
type Universe struct {
	Root string // filesystem root; finding paths are relative to it
	Fset *token.FileSet
	Pkgs []*Package // dependency (topological) order

	sums *summaries // lazily built per-function summary layer
}

// skipDir reports directories never descended into: VCS and tool state,
// and testdata trees (which hold deliberately broken fixture code).
func skipDir(name string) bool {
	return strings.HasPrefix(name, ".") || name == "testdata"
}

// modulePath reads the module path from root/go.mod, or returns "" when
// there is no module file (the fixture-universe case).
func modulePath(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// Load discovers, parses and type-checks every non-test package under
// root. When root holds a go.mod, import paths are derived from the
// module path; otherwise each directory's root-relative slash path is its
// import path (how fixture universes under testdata/src are loaded).
// Imports that resolve inside the universe are served from the freshly
// checked packages; everything else (the standard library) goes through
// the source importer, so the analyzer needs no compiled export data.
func Load(root string) (*Universe, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod := modulePath(root)
	fset := token.NewFileSet()

	type rawPkg struct {
		pkg     *Package
		imports map[string]bool
	}
	raw := map[string]*rawPkg{}
	walkErr := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		// Respect build constraints (//go:build lines and GOOS/GOARCH file
		// suffixes) so a package carrying an excluded file — a build-tagged
		// syscall layer, a wasm stub — still loads and type-checks cleanly
		// from the files that are actually part of this configuration.
		if match, err := build.Default.MatchFile(dir, d.Name()); err != nil || !match {
			return nil
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		ip := filepath.ToSlash(rel)
		switch {
		case mod != "" && ip == ".":
			ip = mod
		case mod != "":
			ip = mod + "/" + ip
		case ip == ".":
			ip = "main"
		}
		rp := raw[ip]
		if rp == nil {
			rp = &rawPkg{pkg: &Package{Path: ip, Dir: dir, Fset: fset}, imports: map[string]bool{}}
			raw[ip] = rp
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		rp.pkg.Files = append(rp.pkg.Files, f)
		rp.pkg.Name = f.Name.Name
		for _, imp := range f.Imports {
			rp.imports[strings.Trim(imp.Path.Value, `"`)] = true
		}
		return nil
	})
	if walkErr != nil {
		return nil, walkErr
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("analysis: no Go packages under %s", root)
	}

	// Topological order over intra-universe imports so each package's
	// dependencies are checked (and importable) before it is.
	paths := make([]string, 0, len(raw))
	for ip := range raw {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	const (
		visiting = 1
		done     = 2
	)
	state := map[string]int{}
	var order []string
	var visit func(string) error
	visit = func(ip string) error {
		switch state[ip] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("analysis: import cycle through %s", ip)
		}
		state[ip] = visiting
		deps := make([]string, 0, len(raw[ip].imports))
		for dep := range raw[ip].imports {
			if _, ok := raw[dep]; ok {
				deps = append(deps, dep)
			}
		}
		sort.Strings(deps)
		for _, dep := range deps {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[ip] = done
		order = append(order, ip)
		return nil
	}
	for _, ip := range paths {
		if err := visit(ip); err != nil {
			return nil, err
		}
	}

	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer does not implement ImporterFrom")
	}
	checked := map[string]*types.Package{}
	imp := chainImporter{local: checked, std: std}

	u := &Universe{Root: root, Fset: fset}
	for _, ip := range order {
		rp := raw[ip]
		// Deterministic file order: the parser saw files in WalkDir
		// (lexical) order already, but sort defensively by position.
		sort.Slice(rp.pkg.Files, func(i, j int) bool {
			return fset.Position(rp.pkg.Files[i].Pos()).Filename <
				fset.Position(rp.pkg.Files[j].Pos()).Filename
		})
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				rp.pkg.SoftErrors = append(rp.pkg.SoftErrors, err)
			},
		}
		tpkg, err := conf.Check(ip, fset, rp.pkg.Files, info)
		if err != nil && tpkg == nil {
			return nil, fmt.Errorf("analysis: type-check %s: %w", ip, err)
		}
		rp.pkg.Types = tpkg
		rp.pkg.Info = info
		rp.pkg.Universe = u
		checked[ip] = tpkg
		u.Pkgs = append(u.Pkgs, rp.pkg)
	}
	return u, nil
}

// chainImporter serves universe-internal imports from the packages this
// run has already checked and defers everything else to the standard
// library source importer.
type chainImporter struct {
	local map[string]*types.Package
	std   types.ImporterFrom
}

func (c chainImporter) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c chainImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := c.local[path]; ok {
		return p, nil
	}
	return c.std.ImportFrom(path, srcDir, 0)
}
