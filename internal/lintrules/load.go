package lintrules

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
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// listEntry is the subset of `go list -json` output the loader needs.
type listEntry struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load lists and type-checks the packages matching patterns (relative to
// dir; "." when empty), resolving every import — standard library and
// intra-module alike — through compiler export data produced by
// `go list -export`. Only the matched packages' non-test sources are
// parsed and analyzed; dependencies stay in export-data form, so loading
// costs one cached build, not a source traversal of the world.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,DepOnly,Incomplete,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lintrules: go list: %v: %s", err, stderr.Bytes())
	}

	exports := make(map[string]string)
	var targets []listEntry
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var e listEntry
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("lintrules: decoding go list output: %w", err)
		}
		if e.Incomplete || e.Error != nil {
			msg := "unknown error"
			if e.Error != nil {
				msg = e.Error.Err
			}
			return nil, fmt.Errorf("lintrules: package %s does not compile: %s", e.ImportPath, msg)
		}
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
		if !e.DepOnly {
			targets = append(targets, e)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, e := range targets {
		if len(e.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range e.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(e.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lintrules: parsing %s: %w", name, err)
			}
			files = append(files, f)
		}
		pkg, info, err := Check(e.ImportPath, fset, files, imp)
		if err != nil {
			return nil, fmt.Errorf("lintrules: type-checking %s: %w", e.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{Path: e.ImportPath, Fset: fset, Files: files, Pkg: pkg, Info: info})
	}
	return pkgs, nil
}

// Check type-checks one package's parsed files under the given importer
// and returns the package with the Info tables the analyzers need.
func Check(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp, FakeImportC: true}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// ExportLookup runs `go list -export` once over dir's module and
// returns an export-data lookup function. The result is independent of
// any FileSet, so callers can build it once and construct importers
// (importer.ForCompiler) per FileSet.
func ExportLookup(dir string) (func(path string) (io.ReadCloser, error), error) {
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-json=ImportPath,Export,Incomplete", "./...")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lintrules: go list: %v: %s", err, stderr.Bytes())
	}
	exports := make(map[string]string)
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var e listEntry
		if err := dec.Decode(&e); err != nil {
			return nil, err
		}
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}
	return func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}, nil
}
