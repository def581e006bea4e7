package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// The loader. golang.org/x/tools is not a dependency of this module, so
// there is no go/packages to lean on; instead `go list -deps -export
// -json` supplies, for every package in the dependency closure, both
// the file lists and a compiled export-data file. Packages under
// analysis are parsed and type-checked from source; every import —
// standard library or module-local — resolves through the gc importer
// over that export data. Cross-package references (depsaudit follows
// checker calls from internal/verify into internal/sched) are linked by
// types.Func.FullName rather than object identity, which makes the
// export-data objects in one package's types.Info and the
// source-checked declarations of another package agree.

// Package is one source-loaded, type-checked package.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is a loaded program: every module-local package of the
// closure, type-checked from source.
type Program struct {
	Fset *token.FileSet

	imp types.Importer
	// decls indexes every loaded function/method declaration by its
	// types.Func FullName.
	decls map[string]declSite
}

type declSite struct {
	decl *ast.FuncDecl
	pkg  *Package
}

type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	DepOnly    bool
}

// Load runs `go list -deps -export -json` from dir over the patterns,
// type-checks every module-local package in the closure from source,
// and returns the program plus the pattern-matched target packages in
// command-line order.
func Load(dir string, patterns ...string) (*Program, []*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,CgoFiles,Export,Standard,DepOnly",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var metas []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var m listPkg
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		metas = append(metas, &m)
	}

	exports := make(map[string]string, len(metas))
	for _, m := range metas {
		if m.Export != "" {
			exports[m.ImportPath] = m.Export
		}
	}
	fset := token.NewFileSet()
	prog := &Program{
		Fset: fset,
		imp: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			file, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("lint: no export data for %q", path)
			}
			return os.Open(file)
		}),
		decls: make(map[string]declSite),
	}

	var targets []*Package
	for _, m := range metas {
		if m.Standard {
			continue
		}
		if len(m.CgoFiles) > 0 {
			return nil, nil, fmt.Errorf("lint: package %s uses cgo, which the loader does not support", m.ImportPath)
		}
		files := make([]string, len(m.GoFiles))
		for i, f := range m.GoFiles {
			files[i] = filepath.Join(m.Dir, f)
		}
		pkg, err := prog.check(m.ImportPath, files)
		if err != nil {
			return nil, nil, err
		}
		if !m.DepOnly {
			targets = append(targets, pkg)
		}
	}
	return prog, targets, nil
}

// check parses and type-checks the package at path from its source
// files and indexes its function declarations.
func (prog *Program) check(path string, files []string) (*Package, error) {
	var syntax []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(prog.Fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		syntax = append(syntax, af)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var terrs []error
	conf := types.Config{
		Importer: prog.imp,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	tpkg, _ := conf.Check(path, prog.Fset, syntax, info)
	if len(terrs) > 0 {
		msgs := make([]string, 0, len(terrs))
		for _, e := range terrs {
			msgs = append(msgs, e.Error())
		}
		if len(msgs) > 3 {
			msgs = append(msgs[:3], fmt.Sprintf("… and %d more", len(terrs)-3))
		}
		return nil, fmt.Errorf("lint: type-checking %s:\n  %s", path, strings.Join(msgs, "\n  "))
	}
	pkg := &Package{
		Path:  path,
		Files: syntax,
		Types: tpkg,
		Info:  info,
	}
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
				prog.decls[obj.FullName()] = declSite{decl: fd, pkg: pkg}
			}
		}
	}
	return pkg, nil
}

// FuncDecl resolves a function object — possibly one materialized from
// export data — to its source declaration. Returns nil when no source is
// loaded (standard library, interface methods, func-typed variables).
func (prog *Program) FuncDecl(obj *types.Func) (*ast.FuncDecl, *Package) {
	if obj == nil || obj.Pkg() == nil {
		return nil, nil
	}
	site := prog.decls[obj.FullName()]
	return site.decl, site.pkg
}
