package main

import (
	"go/build"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// writeTree writes files (slash paths relative to root) under root.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// fixture is a module whose one binary links some of internal/a's
// functions: value and pointer receivers, generic instantiations, a
// file built only off amd64, and a function only its own test calls.
var fixture = map[string]string{
	"go.mod": "module fix\n\ngo 1.22\n",
	"internal/a/a.go": `package a

type V struct{ n int }

func (v V) Val() int  { return v.n }
func (v *V) Ptr() int { return v.n + 1 }
func (v V) DeadVal()  {}
func (v *V) DeadPtr() {}

func G[T any](x T) T { return x }

func DeadGeneric[T any](x T) T { return x }

type S[T any] struct{ x T }

func (s *S[T]) M() T { return s.x }

func (s *S[T]) DeadM() T { return s.x }

func Used() int { return 3 }

// OnlyByItsTest has a test and no other caller.
func OnlyByItsTest() int { return 4 }

func init() {}
`,
	"internal/a/a_test.go": `package a

import "testing"

func TestOnlyByItsTest(t *testing.T) {
	if OnlyByItsTest() != 4 {
		t.Fatal("wrong")
	}
}
`,
	"internal/a/other.go": "//go:build !amd64\n\npackage a\n\nfunc NotOnAMD64() {}\n",
	"cmd/fix/main.go": `package main

import "fix/internal/a"

func main() {
	var v a.V
	s := &a.S[int]{}
	println(v.Val(), (&v).Ptr(), a.G(1), a.G("s"), s.M(), a.Used())
}
`,
}

func context(goarch string) build.Context {
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH = "linux", goarch
	return ctx
}

func names(ds []decl) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.name)
	}
	slices.Sort(out)
	return out
}

func TestUnlinkedFixture(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, fixture)
	dead, err := unlinked(root, context("amd64"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/a.(*S).DeadM",
		"internal/a.(*V).DeadPtr",
		"internal/a.DeadGeneric",
		"internal/a.OnlyByItsTest",
		"internal/a.V.DeadVal",
	}
	if got := names(dead); !slices.Equal(got, want) {
		t.Errorf("unlinked %v, want %v", got, want)
	}
	for _, d := range dead {
		if d.name == "internal/a.OnlyByItsTest" && (d.file != "internal/a/a.go" || d.lines != 2) {
			t.Errorf("OnlyByItsTest at %s:%d with %d lines, want internal/a/a.go and 2 lines (doc comment included)", d.file, d.line, d.lines)
		}
	}
}

func TestDeclarationsRespectBuildTags(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, fixture)
	for _, tc := range []struct {
		goarch string
		want   bool
	}{{"amd64", false}, {"arm64", true}} {
		ds, err := declarations(root, "fix", context(tc.goarch))
		if err != nil {
			t.Fatal(err)
		}
		if got := slices.Contains(names(ds), "internal/a.NotOnAMD64"); got != tc.want {
			t.Errorf("GOARCH=%s: NotOnAMD64 declared = %v, want %v", tc.goarch, got, tc.want)
		}
		if slices.ContainsFunc(ds, func(d decl) bool { return d.name == "internal/a.init" || d.name == "internal/a.TestOnlyByItsTest" }) {
			t.Errorf("GOARCH=%s: init or a test function listed", tc.goarch)
		}
	}
}

func TestSymbolMapping(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{"  4a5b20 T fix/internal/a.Used", "fix/internal/a.Used"},
		{"  4a5b20 T fix/internal/a.V.Val", "fix/internal/a.V.Val"},
		{"  4a5b20 T fix/internal/a.(*V).Ptr", "fix/internal/a.(*V).Ptr"},
		{"  4a5b20 T fix/internal/a.G[go.shape.int]", "fix/internal/a.G"},
		{"  4a5b20 T fix/internal/a.(*S[go.shape.struct { X []int; Y map[string]int }]).M", "fix/internal/a.(*S).M"},
		{"  4a5b20 t fix/internal/a.gemm.abi0", "fix/internal/a.gemm"},
		{"  4a5b20 T fix/internal/a.G[go.shape.int].func1", "fix/internal/a.G.func1"},
	} {
		sym, ok := textSymbol(tc.line)
		if !ok {
			t.Errorf("%q: not a text symbol", tc.line)
			continue
		}
		if got := normalize(sym); got != tc.want {
			t.Errorf("normalize(%q) = %q, want %q", sym, got, tc.want)
		}
	}
	for _, line := range []string{"  5c0000 D fix/internal/a.table", "         U fix/internal/a.extern", ""} {
		if sym, ok := textSymbol(line); ok {
			t.Errorf("%q parsed as text symbol %q", line, sym)
		}
	}
}

func TestReadKeep(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name, src string
		want      int // entries, or -1 for an error
	}{
		{"entries and comments", "# header\n\ninternal/a.F  called by b's tests # trailing\ninternal/a.(*V).M interface x\n", 2},
		{"no reason", "internal/a.F\n", -1},
		{"duplicate", "internal/a.F one\ninternal/a.F two\n", -1},
	} {
		path := filepath.Join(dir, "keep.txt")
		if err := os.WriteFile(path, []byte(tc.src), 0o644); err != nil {
			t.Fatal(err)
		}
		keep, err := readKeep(path)
		switch {
		case tc.want < 0 && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want >= 0 && (err != nil || len(keep) != tc.want):
			t.Errorf("%s: %d entries, err %v; want %d", tc.name, len(keep), err, tc.want)
		}
	}
}
