// Command deadcode lists the functions declared under internal/ that
// none of the repository's binaries link, and fails on any that the
// keep list does not name.
//
//	make deadcode
//	go run ./tools/deadcode   # from the repository root
//
// It builds every main package under cmd/ and examples/, plus the
// system benchmark module in bench/ when present, with inlining off for
// this module's packages (so a linked function always has a symbol of
// its own), reads their symbol tables with `go tool nm`, and compares
// them with a go/ast walk of the non-test files under internal/ that the
// host's build context selects (build tags and _GOOS/_GOARCH suffixes
// respected). A function is linked when any binary holds its symbol:
// P.F, P.T.M or P.(*T).M, with generic instantiations (F[go.shape.int])
// folded onto their declaration.
//
// Each line of the keep list, tools/deadcode/keep.txt, is a name as
// this tool prints it, then the reason it stays although no binary
// links it; '#' starts a comment. A keep line that names a linked or
// undeclared function is an error too, so the list cannot outlive its
// reasons.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if err := run(".", "tools/deadcode/keep.txt"); err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(1)
	}
}

func run(root, keepPath string) error {
	keep, err := readKeep(keepPath)
	if err != nil {
		return err
	}
	dead, err := unlinked(root, build.Default)
	if err != nil {
		return err
	}
	failed := false
	for _, d := range dead {
		if _, ok := keep[d.name]; ok {
			delete(keep, d.name)
			continue
		}
		fmt.Printf("%s:%d: %s is linked by no binary (%d lines)\n", d.file, d.line, d.name, d.lines)
		failed = true
	}
	stale := make([]string, 0, len(keep))
	for name := range keep {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	for _, name := range stale {
		fmt.Printf("%s: keep entry %s is linked or no longer declared\n", keepPath, name)
		failed = true
	}
	if failed {
		return fmt.Errorf("unlinked functions outside the keep list, or stale keep entries (delete the code, or add a line with the reason it stays)")
	}
	fmt.Printf("deadcode: every unlinked function under internal/ is in %s (%d entries)\n", keepPath, len(dead))
	return nil
}

// decl is one function declaration under internal/.
type decl struct {
	name  string   // as printed and keyed in the keep list: internal/pkg.F, internal/pkg.(*T).M
	syms  []string // symbol names any one of which proves it linked
	file  string
	line  int
	lines int // with its doc comment
}

// unlinked builds the binaries under root for ctx and returns the
// declarations none of them links, in walk order (file, then line).
func unlinked(root string, ctx build.Context) ([]decl, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	decls, err := declarations(root, module, ctx)
	if err != nil {
		return nil, err
	}
	linked, err := linkedSymbols(root, module, ctx)
	if err != nil {
		return nil, err
	}
	var dead []decl
	for _, d := range decls {
		found := false
		for _, s := range d.syms {
			if linked[s] {
				found = true
				break
			}
		}
		if !found {
			dead = append(dead, d)
		}
	}
	return dead, nil
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// declarations walks the non-test Go files under root/internal that ctx
// selects and returns every function and method except init.
func declarations(root, module string, ctx build.Context) ([]decl, error) {
	var out []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if e.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := ctx.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		pkgRel := filepath.ToSlash(rel)
		pkgPath := module + "/" + pkgRel
		file, _ := filepath.Rel(root, path)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			recv, ptr := receiver(fd)
			var name string
			var syms []string
			switch {
			case recv == "":
				name = pkgRel + "." + fd.Name.Name
				syms = []string{pkgPath + "." + fd.Name.Name}
			case ptr:
				name = pkgRel + ".(*" + recv + ")." + fd.Name.Name
				syms = []string{pkgPath + ".(*" + recv + ")." + fd.Name.Name}
			default:
				name = pkgRel + "." + recv + "." + fd.Name.Name
				syms = []string{pkgPath + "." + recv + "." + fd.Name.Name, pkgPath + ".(*" + recv + ")." + fd.Name.Name}
			}
			start := fd.Pos()
			if fd.Doc != nil {
				start = fd.Doc.Pos()
			}
			out = append(out, decl{
				name:  name,
				syms:  syms,
				file:  filepath.ToSlash(file),
				line:  fset.Position(fd.Pos()).Line,
				lines: fset.Position(fd.End()).Line - fset.Position(start).Line + 1,
			})
		}
		return nil
	})
	return out, err
}

// receiver returns a method's receiver type name without type
// parameters and whether it is a pointer; "" for a plain function.
func receiver(fd *ast.FuncDecl) (string, bool) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return "", false
	}
	t := fd.Recv.List[0].Type
	ptr := false
	if s, ok := t.(*ast.StarExpr); ok {
		t, ptr = s.X, true
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name, ptr
	}
	return "", false
}

// linkedSymbols builds every binary under root for ctx into a temporary
// directory and returns the normalized text symbols of this module's
// packages that any of them holds.
func linkedSymbols(root, module string, ctx build.Context) (map[string]bool, error) {
	bin, err := os.MkdirTemp("", "deadcode")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(bin)
	noInline := "-gcflags=" + module + "/...=-l"
	var mains []string
	for _, dir := range []string{"cmd", "examples"} {
		if _, err := os.Stat(filepath.Join(root, dir)); err == nil {
			mains = append(mains, "./"+dir+"/...")
		}
	}
	if len(mains) == 0 {
		return nil, fmt.Errorf("no cmd/ or examples/ under %s", root)
	}
	if err := goCmd(root, ctx, append([]string{"build", noInline, "-o", bin + string(filepath.Separator)}, mains...)...); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "bench", "go.mod")); err == nil {
		if err := goCmd(filepath.Join(root, "bench"), ctx, "build", noInline, "-o", filepath.Join(bin, "bench.bin"), "."); err != nil {
			return nil, err
		}
	}
	entries, err := os.ReadDir(bin)
	if err != nil {
		return nil, err
	}
	linked := make(map[string]bool)
	for _, e := range entries {
		var out bytes.Buffer
		cmd := exec.Command("go", "tool", "nm", filepath.Join(bin, e.Name()))
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("go tool nm %s: %w", e.Name(), err)
		}
		sc := bufio.NewScanner(&out)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if sym, ok := textSymbol(sc.Text()); ok && strings.HasPrefix(sym, module+"/") {
				linked[normalize(sym)] = true
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return linked, nil
}

func goCmd(dir string, ctx build.Context, args ...string) error {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOOS="+ctx.GOOS, "GOARCH="+ctx.GOARCH)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go %s (in %s): %w", strings.Join(args, " "), dir, err)
	}
	return nil
}

// textSymbol parses one `go tool nm` line ("addr T name", the name
// possibly holding spaces inside a generic shape) and returns the name
// of a text (code) symbol.
func textSymbol(line string) (string, bool) {
	f := strings.Fields(line)
	if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
		return "", false
	}
	return strings.Join(f[2:], " "), true
}

// normalize folds a symbol onto its declaration's name: generic
// instantiation brackets after an identifier are dropped
// (pkg.(*S[go.shape.int]).M → pkg.(*S).M, pkg.F[...] → pkg.F) and so
// is an assembly ABI suffix.
func normalize(sym string) string {
	sym = strings.TrimSuffix(sym, ".abi0")
	var b strings.Builder
	depth := 0
	for i := 0; i < len(sym); i++ {
		c := sym[i]
		switch {
		case depth > 0:
			if c == '[' {
				depth++
			} else if c == ']' {
				depth--
			}
		case c == '[' && i > 0 && isIdent(sym[i-1]):
			depth = 1
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

func isIdent(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= 0x80
}

// readKeep parses the keep list into name → reason.
func readKeep(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	keep := make(map[string]string)
	for i, line := range strings.Split(string(b), "\n") {
		if j := strings.IndexByte(line, '#'); j >= 0 {
			line = line[:j]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) < 2 {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, f[0])
		}
		if _, dup := keep[f[0]]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, i+1, f[0])
		}
		keep[f[0]] = strings.Join(f[1:], " ")
	}
	return keep, nil
}
