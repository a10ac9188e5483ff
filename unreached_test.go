package kvcsd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"kvcsd/internal/golden"
)

// harnessPackages are test harnesses that live outside _test.go files so
// several packages' tests can share them; no program links them, so the
// scan does not list their functions.
var harnessPackages = []string{
	"kvcsd/internal/chaos",
	"kvcsd/internal/golden",
	"kvcsd/internal/linearize",
}

// implicitMethods are methods the standard library calls through its
// interfaces (fmt, errors, sort, container/heap, encoding/json, io, net/http)
// without the program ever naming them: a reached type keeps them.
var implicitMethods = []string{
	"As", "Close", "Error", "Format", "GoString", "Is", "Len", "Less",
	"MarshalJSON", "MarshalText", "Pop", "Push", "Read", "ServeHTTP",
	"String", "Swap", "UnmarshalJSON", "UnmarshalText", "Unwrap", "Write",
}

// TestUnreachedGolden lists every function and method of the program that
// nothing a main package (cmd/, examples/, benchmark/) runs can reach, in
// testdata/unreached.golden. Code only its own tests call is debt: a new
// entry fails here until the code is deleted or the line is committed with
// its reason in DESIGN.md §14 "Kept on purpose".
//
// The scan reads syntax only (go/parser), so reachability is by name: an
// identifier reaches the declaration of that name in its package or the
// package it selects from, and a method is reached once its receiver type is
// and any reached code selects its name (or the standard library calls it,
// implicitMethods). The roots are the main packages' main, and the init
// functions and package-level variable initializers of every package they
// link. Shadowing and same-named methods only make the scan see more code
// reached, never less.
func TestUnreachedGolden(t *testing.T) {
	s := scanModule(t, ".")
	s.reach()
	golden.Check(t, filepath.Join("testdata", "unreached.golden"), []byte(strings.Join(s.unreached(), "\n")+"\n"))
}

// srcFile is one parsed non-test file and the packages its imports name.
type srcFile struct {
	ast     *ast.File
	pkg     string            // import path of the file's package
	imports map[string]string // local name -> import path
}

// srcPackage is one directory's non-test files and their top-level names.
type srcPackage struct {
	path    string
	main    bool
	files   []*srcFile
	top     map[string][]declRef            // funcs, types, vars, consts
	methods map[string]map[string][]declRef // receiver type -> method name
}

// declRef is a declaration and the file whose imports resolve its names.
type declRef struct {
	node ast.Node
	file *srcFile
}

type topKey struct{ pkg, name string }

type methodKey struct{ pkg, recv, name string }

type moduleScan struct {
	pkgs     map[string]*srcPackage
	top      map[topKey]bool
	methods  map[methodKey]bool
	selected map[string]bool
	queue    []declRef
}

// scanModule parses every non-test .go file under root, skipping testdata
// and hidden directories.
func scanModule(t *testing.T, root string) *moduleScan {
	t.Helper()
	s := &moduleScan{pkgs: map[string]*srcPackage{}, top: map[topKey]bool{},
		methods: map[methodKey]bool{}, selected: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		s.add(filepath.ToSlash(filepath.Join("kvcsd", filepath.Dir(path))), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// add files f under package path and indexes its top-level declarations.
func (s *moduleScan) add(path string, f *ast.File) {
	pkg := s.pkgs[path]
	if pkg == nil {
		pkg = &srcPackage{path: path, main: f.Name.Name == "main",
			top: map[string][]declRef{}, methods: map[string]map[string][]declRef{}}
		s.pkgs[path] = pkg
	}
	sf := &srcFile{ast: f, pkg: path, imports: map[string]string{}}
	for _, im := range f.Imports {
		ip, _ := strconv.Unquote(im.Path.Value)
		local := ip[strings.LastIndex(ip, "/")+1:]
		if im.Name != nil {
			local = im.Name.Name
		}
		sf.imports[local] = ip
	}
	pkg.files = append(pkg.files, sf)
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				pkg.top[d.Name.Name] = append(pkg.top[d.Name.Name], declRef{d, sf})
				continue
			}
			recv := recvName(d.Recv.List[0].Type)
			if pkg.methods[recv] == nil {
				pkg.methods[recv] = map[string][]declRef{}
			}
			pkg.methods[recv][d.Name.Name] = append(pkg.methods[recv][d.Name.Name], declRef{d, sf})
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					pkg.top[sp.Name.Name] = append(pkg.top[sp.Name.Name], declRef{sp, sf})
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						pkg.top[n.Name] = append(pkg.top[n.Name], declRef{sp, sf})
					}
				}
			}
		}
	}
}

// recvName returns the type name of a method receiver: T of T, *T, T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// reach marks everything the roots reach.
func (s *moduleScan) reach() {
	for _, name := range implicitMethods {
		s.selected[name] = true
	}
	for _, path := range s.linked() {
		pkg := s.pkgs[path]
		for _, f := range pkg.files {
			for _, d := range f.ast.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || pkg.main && d.Name.Name == "main") {
						s.markTop(path, d.Name.Name)
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, sp := range d.Specs {
						for _, v := range sp.(*ast.ValueSpec).Values {
							s.queue = append(s.queue, declRef{v, f})
						}
					}
				}
			}
		}
	}
	for {
		for len(s.queue) > 0 {
			d := s.queue[len(s.queue)-1]
			s.queue = s.queue[:len(s.queue)-1]
			s.walk(d)
		}
		// A method is reached once its type is and its name is selected.
		for _, pkg := range s.pkgs {
			for recv, ms := range pkg.methods {
				if !s.top[topKey{pkg.path, recv}] {
					continue
				}
				for name, decls := range ms {
					k := methodKey{pkg.path, recv, name}
					if s.selected[name] && !s.methods[k] {
						s.methods[k] = true
						s.queue = append(s.queue, decls...)
					}
				}
			}
		}
		if len(s.queue) == 0 {
			return
		}
	}
}

// linked returns the main packages and every module package they import,
// directly or not.
func (s *moduleScan) linked() []string {
	seen := map[string]bool{}
	var order, stack []string
	for path, pkg := range s.pkgs {
		if pkg.main {
			stack = append(stack, path)
		}
	}
	for len(stack) > 0 {
		path := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[path] || s.pkgs[path] == nil {
			continue
		}
		seen[path] = true
		order = append(order, path)
		for _, f := range s.pkgs[path].files {
			for _, ip := range f.imports {
				stack = append(stack, ip)
			}
		}
	}
	return order
}

// markTop reaches a top-level name of pkg, if it declares one.
func (s *moduleScan) markTop(pkg, name string) {
	p := s.pkgs[pkg]
	k := topKey{pkg, name}
	if p == nil || s.top[k] || p.top[name] == nil {
		return
	}
	s.top[k] = true
	s.queue = append(s.queue, p.top[name]...)
}

// walk reaches every name a reached declaration mentions.
func (s *moduleScan) walk(d declRef) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// A local name may shadow an import, so a selector through an
			// import's name also counts as a method selection.
			s.selected[n.Sel.Name] = true
			if id, ok := n.X.(*ast.Ident); ok {
				if ip, ok := d.file.imports[id.Name]; ok {
					s.markTop(ip, n.Sel.Name)
				}
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			s.markTop(d.file.pkg, n.Name)
		}
		return true
	}
	ast.Inspect(d.node, visit)
}

// unreached lists the functions and methods reach did not mark, outside the
// harness packages, sorted: "pkg.Func" and "pkg.Type.Method".
func (s *moduleScan) unreached() []string {
	var out []string
	for path, pkg := range s.pkgs {
		if slices.Contains(harnessPackages, path) {
			continue
		}
		for name, decls := range pkg.top {
			if _, fn := decls[0].node.(*ast.FuncDecl); fn && !s.top[topKey{path, name}] {
				out = append(out, path+"."+name)
			}
		}
		for recv, ms := range pkg.methods {
			for name := range ms {
				if !s.methods[methodKey{path, recv, name}] {
					out = append(out, path+"."+recv+"."+name)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}
