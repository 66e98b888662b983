package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lintrules"
)

// program is what the dead-code rules in orphan_test.go know about a
// module's program files: every non-test file outside examples/. Each
// package is type-checked on its own against export data, so one
// declaration has a different types.Object in each package that sees it:
// declarations are matched by key — "pkg.Name" for package-level names,
// "pkg.Type.Name" for methods and fields — never by identity.
type program struct {
	internal []*lintrules.Package   // the packages under internal/
	uses     map[string]bool        // names, methods and fields referenced
	sets     map[string]bool        // fields written
	reads    map[string]bool        // fields read
	ifaces   map[string][]methodSig // interfaces a value may be converted to
	reflect  map[types.Type]bool    // types encoding/json or fmt may walk
	decoded  map[types.Type]bool    // types a JSON decode fills
}

// methodSig is one method's name and signature, the signature rendered
// with full package paths and without parameter names so that two
// type-checks of the same method compare equal.
type methodSig struct{ name, sig string }

// newProgram indexes pkgs, the loaded packages of module.
func newProgram(module string, pkgs []*lintrules.Package) *program {
	prog := &program{
		uses: make(map[string]bool), sets: make(map[string]bool), reads: make(map[string]bool),
		ifaces: make(map[string][]methodSig), reflect: make(map[types.Type]bool), decoded: make(map[types.Type]bool),
	}
	var sources []*lintrules.Package
	for _, p := range pkgs {
		if strings.Contains(p.Pkg.Path(), "/examples/") {
			continue
		}
		sources = append(sources, p)
		if strings.Contains(p.Pkg.Path(), "/internal/") {
			prog.internal = append(prog.internal, p)
		}
	}
	for _, p := range sources {
		// A method's receiver names its type, but it does not use it: a
		// type only its own methods mention is dead with them.
		recv := make(map[*ast.Ident]bool)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			}
			prog.scanFields(p.Info, f)
		}
		for id, obj := range p.Info.Uses {
			if key := objKey(obj); key != "" && !recv[id] {
				prog.uses[key] = true
			}
		}
	}
	for t := range prog.reflect {
		prog.markAll(t, prog.reads, make(map[types.Type]bool))
	}
	for t := range prog.decoded {
		prog.markAll(t, prog.sets, make(map[types.Type]bool))
	}

	// Interfaces: the universe's error, the errors package's unnamed
	// protocols, every named one outside the module (a value may meet it
	// in any library call), the module's own when a program file names
	// them, and every interface literal a program file writes.
	prog.addInterface("error", types.Universe.Lookup("error").Type())
	for name, t := range errorsProtocols() {
		prog.addInterface(name, t)
	}
	seen := make(map[*types.Package]bool)
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		inModule := pkg.Path() == module || strings.HasPrefix(pkg.Path(), module+"/")
		for _, tn := range typeNames(pkg) {
			key := pkg.Path() + "." + tn.Name()
			if !inModule || prog.uses[key] {
				prog.addInterface(key, tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range sources {
		walk(p.Pkg)
		for _, tv := range p.Info.Types {
			if _, ok := tv.Type.(*types.Interface); ok {
				prog.addInterface(types.TypeString(tv.Type, pathQualifier), tv.Type)
			}
		}
	}
	return prog
}

// deadNames returns the package-level declarations under internal/ that
// no program file references.
func (prog *program) deadNames() []string {
	var dead []string
	for _, p := range prog.internal {
		for _, name := range p.Pkg.Scope().Names() {
			if key := p.Pkg.Path() + "." + name; !prog.uses[key] {
				dead = append(dead, key)
			}
		}
	}
	return sorted(dead)
}

// deadMethods returns the methods declared under internal/, on a named
// type or in an interface, that no program file calls or otherwise
// references, and that implement no method of an interface the program
// can convert their type to.
func (prog *program) deadMethods() []string {
	var dead []string
	for _, p := range prog.internal {
		for _, tn := range typeNames(p.Pkg) {
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			typeKey := p.Pkg.Path() + "." + tn.Name()
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					if key := typeKey + "." + iface.ExplicitMethod(i).Name(); !prog.uses[key] {
						dead = append(dead, key)
					}
				}
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if key := typeKey + "." + m.Name(); !prog.uses[key] && !prog.satisfies(ms, m) {
					dead = append(dead, key)
				}
			}
		}
	}
	return sorted(dead)
}

// deadFields returns the fields of named struct types under internal/
// that no program file sets, and separately those that no program file
// reads. Embedded fields are types in use, not data, and are skipped.
func (prog *program) deadFields() (unset, unread []string) {
	for _, p := range prog.internal {
		for _, tn := range typeNames(p.Pkg) {
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Embedded() || f.Name() == "_" {
					continue
				}
				key := p.Pkg.Path() + "." + tn.Name() + "." + f.Name()
				if !prog.sets[key] {
					unset = append(unset, key)
				} else if !prog.reads[key] {
					unread = append(unread, key)
				}
			}
		}
	}
	return sorted(unset), sorted(unread)
}

func sorted(s []string) []string {
	sort.Strings(s)
	return s
}

// typeNames returns the package-level type declarations of pkg.
func typeNames(pkg *types.Package) []*types.TypeName {
	var out []*types.TypeName
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			out = append(out, tn)
		}
	}
	return out
}

// errorsProtocols are the interfaces errors.Is, errors.As and
// errors.Unwrap assert to without naming them.
func errorsProtocols() map[string]types.Type {
	const src = `package errors
type isser interface{ Is(error) bool }
type aser interface{ As(any) bool }
type unwrapper interface{ Unwrap() error }
type multiUnwrapper interface{ Unwrap() []error }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "protocols.go", src, 0)
	if err != nil {
		panic(err)
	}
	pkg, err := new(types.Config).Check("errors", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	out := make(map[string]types.Type)
	for _, tn := range typeNames(pkg) {
		out["errors."+tn.Name()] = tn.Type()
	}
	return out
}

func (prog *program) addInterface(key string, t types.Type) {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok || !iface.IsMethodSet() || iface.NumMethods() == 0 {
		return
	}
	if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return
	}
	if _, ok := prog.ifaces[key]; ok {
		return
	}
	sigs := make([]methodSig, iface.NumMethods())
	for i := range sigs {
		m := iface.Method(i)
		sigs[i] = methodSig{m.Name(), sigString(m.Type())}
	}
	prog.ifaces[key] = sigs
}

// satisfies reports whether m is a method of some interface that the
// method set ms implements in full.
func (prog *program) satisfies(ms *types.MethodSet, m *types.Func) bool {
	have := make(map[methodSig]bool, ms.Len())
	for i := 0; i < ms.Len(); i++ {
		obj := ms.At(i).Obj()
		have[methodSig{obj.Name(), sigString(obj.Type())}] = true
	}
	want := methodSig{m.Name(), sigString(m.Type())}
	for _, sigs := range prog.ifaces {
		hit, all := false, true
		for _, s := range sigs {
			hit = hit || s == want
			all = all && have[s]
		}
		if hit && all {
			return true
		}
	}
	return false
}

// sigString renders a method's parameter and result types, without the
// receiver and the parameter names.
func sigString(t types.Type) string {
	sig := t.(*types.Signature)
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), pathQualifier))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

func pathQualifier(p *types.Package) string { return p.Path() }

// objKey keys a package-level object or a method; "" for anything else.
// Fields are keyed by their selection instead (fieldKeys): a field
// object does not know the struct type that declares it.
func objKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			if n := namedOf(recv.Type()); n != nil {
				return typeKey(n) + "." + o.Name()
			}
			return ""
		}
	case *types.Var:
		if o.IsField() {
			return ""
		}
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return ""
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func typeKey(n *types.Named) string {
	n = n.Origin()
	if n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// scanFields walks one file and records every field write in sets and
// every field read in reads. A write is a composite literal key or
// element, the target of an assignment or increment, an address taken
// (&x.F, x.arr[:]), or a pointer method called on an addressable field
// (x.mu.Lock()); a JSON decode writes every field of its target. A read
// is any other selection of the field; a value handed to an empty
// interface — fmt, encoding/json, a writeJSON(any) helper — has every
// field read by reflection.
func (prog *program) scanFields(info *types.Info, f *ast.File) {
	written := make(map[*ast.SelectorExpr]bool) // selections that only write
	set := func(e ast.Expr, pure bool) {
		for first := true; ; first = false {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				for _, k := range prog.fieldKeys(info, x) {
					prog.sets[k] = true
				}
				if first && pure {
					written[x] = true
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				set(l, true)
			}
		case *ast.IncDecStmt:
			set(x.X, true)
		case *ast.RangeStmt:
			if x.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{x.Key, x.Value} {
					if e != nil {
						set(e, true)
					}
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				set(x.X, false)
			}
		case *ast.SliceExpr:
			if _, ok := info.Types[x.X].Type.Underlying().(*types.Array); ok {
				set(x.X, false) // slicing an array field addresses it
			}
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.MethodVal {
				_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				_, ptrOperand := info.Types[x.X].Type.(*types.Pointer)
				if ptrRecv && !ptrOperand {
					set(x.X, false)
				}
			}
		case *ast.CompositeLit:
			prog.scanLiteral(info, x)
		case *ast.CallExpr:
			prog.scanCall(info, x)
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		if x, ok := n.(*ast.SelectorExpr); ok {
			keys := prog.fieldKeys(info, x)
			if written[x] && len(keys) > 0 {
				keys = keys[:len(keys)-1] // the embedded fields on the way are read
			}
			for _, k := range keys {
				prog.reads[k] = true
			}
		}
		return true
	})
}

// scanLiteral records the fields a composite literal sets and the
// values it hands to an empty interface.
func (prog *program) scanLiteral(info *types.Info, lit *ast.CompositeLit) {
	t := info.Types[lit].Type
	if t == nil {
		return
	}
	if n := namedOf(t); n != nil {
		if st, ok := n.Underlying().(*types.Struct); ok {
			for i, el := range lit.Elts {
				f := st.Field(i) // an unkeyed literal lists every field in order
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					f = fieldByName(st, kv.Key.(*ast.Ident).Name)
					el = kv.Value
				}
				prog.sets[typeKey(n)+"."+f.Name()] = true
				prog.toInterface(info, el, f.Type())
			}
			return
		}
	}
	for _, el := range lit.Elts {
		switch u := t.Underlying().(type) {
		case *types.Map:
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				prog.toInterface(info, kv.Key, u.Key())
				prog.toInterface(info, kv.Value, u.Elem())
			}
		case *types.Slice:
			prog.toInterface(info, unkey(el), u.Elem())
		case *types.Array:
			prog.toInterface(info, unkey(el), u.Elem())
		}
	}
}

// scanCall records the values a call hands to an empty interface and the
// target of a JSON decode.
func (prog *program) scanCall(info *types.Info, call *ast.CallExpr) {
	if tv := info.Types[call.Fun]; tv.IsType() || tv.Type == nil {
		return
	}
	sig, ok := info.Types[call.Fun].Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch params := sig.Params(); {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type()
			if call.Ellipsis == token.NoPos {
				pt = pt.(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		prog.toInterface(info, arg, pt)
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
			return
		}
		switch {
		case fn.Name() == "Unmarshal" && len(call.Args) == 2:
			prog.decoded[info.Types[call.Args[1]].Type] = true
		case fn.Name() == "Decode" && len(call.Args) == 1:
			prog.decoded[info.Types[call.Args[0]].Type] = true
		}
	}
}

// toInterface notes e's type for reflection when e is handed to a slot
// of type want that is an empty interface.
func (prog *program) toInterface(info *types.Info, e ast.Expr, want types.Type) {
	if want == nil {
		return
	}
	if iface, ok := want.Underlying().(*types.Interface); !ok || iface.NumMethods() != 0 {
		return
	}
	if t := info.Types[e].Type; t != nil {
		prog.reflect[t] = true
	}
}

// markAll marks in m every field reachable from t.
func (prog *program) markAll(t types.Type, m map[string]bool, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Pointer:
		prog.markAll(u.Elem(), m, seen)
	case *types.Slice:
		prog.markAll(u.Elem(), m, seen)
	case *types.Array:
		prog.markAll(u.Elem(), m, seen)
	case *types.Map:
		prog.markAll(u.Key(), m, seen)
		prog.markAll(u.Elem(), m, seen)
	case *types.Named:
		st, ok := u.Underlying().(*types.Struct)
		if !ok {
			prog.markAll(u.Underlying(), m, seen)
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			m[typeKey(u)+"."+st.Field(i).Name()] = true
			prog.markAll(st.Field(i).Type(), m, seen)
		}
	}
}

// fieldKeys returns the key of the field sel selects, after those of the
// embedded fields it passes through on the way; nil for anything but a
// field selection.
func (prog *program) fieldKeys(info *types.Info, sel *ast.SelectorExpr) []string {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	var keys []string
	t := s.Recv()
	for _, i := range s.Index() {
		n := namedOf(t)
		if n == nil {
			return keys
		}
		st, ok := n.Underlying().(*types.Struct)
		if !ok {
			return keys
		}
		f := st.Field(i)
		keys = append(keys, typeKey(n)+"."+f.Name())
		t = f.Type()
	}
	return keys
}

func fieldByName(st *types.Struct, name string) *types.Var {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i)
		}
	}
	panic("no field " + name)
}

func unkey(e ast.Expr) ast.Expr {
	if kv, ok := e.(*ast.KeyValueExpr); ok {
		return kv.Value
	}
	return e
}
