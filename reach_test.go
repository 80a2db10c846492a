package ecoscale

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// modulePath is this module's import path; perfbench is a separate module
// that imports it through a replace directive and is scanned as a caller.
const modulePath = "ecoscale"

// unreachedAllowed lists the exported internal/ functions and methods
// that no non-test code reaches but that stay, grouped by the reason
// they stay. A name is "pkg.Func", "pkg.Type.Method" or "pkg.*" for a
// whole package, with pkg relative to internal/.
var unreachedAllowed = []struct {
	reason string
	names  []string
}{
	{"reference implementations the tests compare against", []string{
		"sim/heapref.*", "fabric.DecompressRLE",
	}},
	{"accessors the tests use to observe state of code that stays", []string{
		"cas.Store.Get",
		"fabric.Fabric.Loads", "fabric.Fabric.PlacementFailures",
		"mem.Cache.Config", "mem.Cache.Contains", "mem.Cache.Hits", "mem.Cache.Misses",
		"mem.Cache.ValidLines", "mem.Cache.Writebacks", "mem.DRAM.Accesses",
		"mem.Directory.Owner", "mem.Directory.Sharers",
		"perfmodel.Regression.R2", "profile.CritPath.CategoryTime",
		"rts.Cluster.TotalExecuted", "rts.History.Len", "rts.Scheduler.Dead", "rts.Scheduler.MeanWait",
		"sim.Engine.RNG", "sim.Resource.InUse", "sim.Signal.FiredAt",
		"smmu.SMMU.Faults", "smmu.SMMU.Hits", "smmu.SMMU.Misses",
		"trace.FlowLog.Layers", "trace.FlowLog.Len", "trace.Registry.CounterNames",
		"trace.Registry.FindGauge", "trace.Registry.GaugeNames", "trace.Registry.HistogramNames",
		"unilogic.Domain.Rejected",
		"unimem.Space.Cache", "unimem.Space.CacherOf", "unimem.Space.NumWorkers",
		"unimem.Space.OwnerOf", "unimem.Space.PeekWord",
	}},
	{"the store the coherence tests drive, the pair of the reached ReadWord", []string{
		"unimem.Space.WriteWord",
	}},
	{"the perfbench driver's tests look scenarios up by id", []string{
		"experiments.ByID",
	}},
	{"sharding, whose fate ROADMAP item 4 decides", []string{
		"sim.Group.Pending",
	}},
	{"the reconfiguration daemon's ticking; wiring or deleting it is ROADMAP item 4's call", []string{
		"rts.Daemon.Start", "rts.Daemon.Stop",
	}},
	{"errors.Unwrap reaches it through an unnamed interface", []string{
		"runner.PointError.Unwrap",
	}},
}

// TestEveryExportReached type-checks every non-test package of the module
// (plus the perfbench driver) and fails on any exported function or method
// under internal/ that no non-test code refers to, unless the method
// implements an interface or the name is in unreachedAllowed. Code that no
// scenario, CLI or example reaches is deleted, not kept around.
func TestEveryExportReached(t *testing.T) {
	r := newReachScan(t)
	dirs := r.packageDirs(".")
	for _, dir := range dirs {
		r.load(importPathOf(dir))
	}
	// perfbench is its own module with a replace onto this one.
	r.check("ecoscale/perfbench", "perfbench")

	allowed := map[string]bool{}
	for _, group := range unreachedAllowed {
		for _, name := range group.names {
			allowed[name] = false
		}
	}
	var missing []string
	for _, fn := range r.exported() {
		if r.used[fn] || r.implementsInterface(fn) {
			continue
		}
		key := r.key(fn)
		if pkgKey := key[:strings.IndexByte(key, '.')] + ".*"; allowAndMark(allowed, pkgKey) {
			continue
		}
		if allowAndMark(allowed, key) {
			continue
		}
		missing = append(missing, key+"  ("+r.fset.Position(fn.Pos()).String()+")")
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("exported but reached by no non-test code: %s", m)
	}
	for name, hit := range allowed {
		if !hit {
			t.Errorf("unreachedAllowed entry %q names nothing that is still unreached; remove it", name)
		}
	}
}

// allowAndMark reports whether name is allowed, recording that the entry
// is still needed.
func allowAndMark(allowed map[string]bool, name string) bool {
	if _, ok := allowed[name]; !ok {
		return false
	}
	allowed[name] = true
	return true
}

type reachScan struct {
	t      *testing.T
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*types.Package // by import path
	used   map[*types.Func]bool
	ifaces []*types.Interface // every interface in scope, built on first use
}

func newReachScan(t *testing.T) *reachScan {
	fset := token.NewFileSet()
	return &reachScan{
		t:    t,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
		used: map[*types.Func]bool{},
	}
}

// packageDirs lists the module's directories that hold Go files, skipping
// hidden and testdata trees and the separate perfbench module.
func (r *reachScan) packageDirs(root string) []string {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "perfbench") {
			return filepath.SkipDir
		}
		if matches, _ := filepath.Glob(filepath.Join(path, "*.go")); len(matches) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		r.t.Fatal(err)
	}
	return dirs
}

func importPathOf(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(dir)
}

// Import resolves module packages from source in this scan and everything
// else through the standard library's source importer.
func (r *reachScan) Import(path string) (*types.Package, error) {
	if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
		return r.load(path), nil
	}
	return r.std.Import(path)
}

func (r *reachScan) load(path string) *types.Package {
	if p, ok := r.pkgs[path]; ok {
		return p
	}
	dir := "."
	if path != modulePath {
		dir = filepath.FromSlash(strings.TrimPrefix(path, modulePath+"/"))
	}
	return r.check(path, dir)
}

func (r *reachScan) check(path, dir string) *types.Package {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		r.t.Fatalf("%s: %v", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(r.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			r.t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses: map[*ast.Ident]types.Object{},
		Defs: map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: r}
	pkg, err := conf.Check(path, r.fset, files, info)
	if err != nil {
		r.t.Fatalf("type-check %s: %v", path, err)
	}
	r.pkgs[path] = pkg
	r.recordUses(files, info)
	return pkg
}

// recordUses marks every function and method referred to from outside its
// own body.
func (r *reachScan) recordUses(files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, decl := range f.Decls {
			var self types.Object
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self = info.Defs[fd.Name]
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := info.Uses[id].(*types.Func)
				if !ok || fn == self {
					return true
				}
				r.used[fn.Origin()] = true
				return true
			})
		}
	}
}

// exported returns every exported package-level function and every
// exported method declared under internal/.
func (r *reachScan) exported() []*types.Func {
	var out []*types.Func
	for path, pkg := range r.pkgs {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					out = append(out, obj)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						out = append(out, m)
					}
				}
			}
		}
	}
	return out
}

// implementsInterface reports whether fn is a method that satisfies a
// method of an interface declared in this module or in a package it
// imports; such a method is called through the interface.
func (r *reachScan) implementsInterface(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ptr := types.NewPointer(recv)
	for _, iface := range r.allInterfaces() {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() && types.Implements(ptr, iface) {
				return true
			}
		}
	}
	return false
}

// allInterfaces collects every non-empty interface type named in the
// scanned packages and in everything they import, plus error.
func (r *reachScan) allInterfaces() []*types.Interface {
	if r.ifaces != nil {
		return r.ifaces
	}
	r.ifaces = []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				r.ifaces = append(r.ifaces, iface)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range r.pkgs {
		walk(p)
	}
	return r.ifaces
}

// key names fn as unreachedAllowed does.
func (r *reachScan) key(fn *types.Func) string {
	pkg := strings.TrimPrefix(fn.Pkg().Path(), modulePath+"/internal/")
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name = t.(*types.Named).Obj().Name() + "." + name
	}
	return pkg + "." + name
}
