package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// layers is the import order of DESIGN §1, lowest first. A package may
// import packages of its own layer and of the layers below it, never of
// one above; a package that is in no layer fails too, so a new package
// takes its place here when it is added. Names are directories under
// internal/, the facade flexnet, and the cmd and examples trees.
var layers = [][]string{
	{"proto", "wire", "visited", "slab", "prefetch", "metrics", "crypto", "runner", "model"},
	{"topology", "netem"},
	{"sim"},
	{"relchan", "flood", "adaptive", "dandelion", "dcnet", "group", "core", "chain", "dissent"},
	{"stack"},
	{"simulate", "adversary", "workload"},
	{"transport", "node", "codec"},
	{"parity", "experiments"},
	{"flexnet"},
	{"cmd", "examples"},
}

// layerName maps a path inside the module to its name in layers:
// internal/x is x, and every package under cmd/ or examples/ is cmd or
// examples.
func layerName(path string) string {
	first, rest, _ := strings.Cut(path, "/")
	switch first {
	case "internal":
		return rest
	case "cmd", "examples":
		return first
	}
	return path
}

// TestLayers reads the imports of every non-test Go file outside bench/
// (its own module) and checks each against layers.
func TestLayers(t *testing.T) {
	layerOf := make(map[string]int)
	for i, names := range layers {
		for _, name := range names {
			layerOf[name] = i
		}
	}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		files++
		pkg := layerName(filepath.ToSlash(filepath.Dir(path)))
		own, ok := layerOf[pkg]
		if !ok {
			t.Errorf("%s: package %s is in no layer", path, pkg)
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			rel, ok := strings.CutPrefix(imp, "repro/")
			if !ok {
				continue
			}
			dep := layerName(rel)
			l, ok := layerOf[dep]
			switch {
			case !ok:
				t.Errorf("%s imports %s, which is in no layer", path, imp)
			case l > own:
				t.Errorf("%s imports %s: %s is in layer %d %v, above %s in layer %d %v",
					path, imp, dep, l, layers[l], pkg, own, layers[own])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go files found; TestLayers must run from the module root")
	}
}
