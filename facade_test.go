package recsys_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// facadeNames returns the exported top-level names a facade source
// declares.
func facadeNames(src []byte) ([]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), "recsys.go", src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names = append(names, n.Name)
					}
				}
			}
		}
	}
	return slices.DeleteFunc(names, func(n string) bool { return !ast.IsExported(n) }), nil
}

// mdUse matches a facade selector inside a markdown code block.
var mdUse = regexp.MustCompile(`\brecsys\.([A-Z]\w*)`)

// facadeUses returns the facade names one user source selects: in a Go
// file, recsys.Name selectors on the file's import of "recsys"
// (comments and strings do not count); in markdown, recsys.Name inside
// fenced ```go blocks.
func facadeUses(path string, src []byte) (map[string]bool, error) {
	used := make(map[string]bool)
	if strings.HasSuffix(path, ".md") {
		inGo := false
		for _, line := range strings.Split(string(src), "\n") {
			if fence := strings.TrimSpace(line); strings.HasPrefix(fence, "```") {
				inGo = !inGo && fence == "```go"
				continue
			}
			if inGo {
				for _, m := range mdUse.FindAllStringSubmatch(line, -1) {
					used[m[1]] = true
				}
			}
		}
		return used, nil
	}
	f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	local := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "recsys" {
			local = "recsys"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	if local == "" {
		return used, nil
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				used[sel.Sel.Name] = true
			}
		}
		return true
	})
	return used, nil
}

// facadeOrphans returns, sorted, the facade names no user selects.
func facadeOrphans(facade []byte, users map[string][]byte) ([]string, error) {
	names, err := facadeNames(facade)
	if err != nil {
		return nil, err
	}
	used := make(map[string]bool)
	for path, src := range users {
		u, err := facadeUses(path, src)
		if err != nil {
			return nil, err
		}
		for n := range u {
			used[n] = true
		}
	}
	names = slices.DeleteFunc(names, func(n string) bool { return used[n] })
	slices.Sort(names)
	return names, nil
}

func TestFacadeOrphans(t *testing.T) {
	const facade = `package recsys

import "x"

type (
	Config  = x.Config
	Orphan  = x.Orphan
	private = x.Private
)

const Cat, Dot = x.Cat, x.Dot

var Build = x.Build
`
	example := func(body string) []byte {
		return []byte("package main\n\nimport \"recsys\"\n\nfunc main() {\n" + body + "\n}\n")
	}
	for _, tc := range []struct {
		name  string
		users map[string][]byte
		want  []string
	}{
		{
			name:  "every name used",
			users: map[string][]byte{"examples/a/main.go": example("_ = recsys.Config{}; _, _ = recsys.Cat, recsys.Dot; recsys.Build(); _ = recsys.Orphan{}")},
		},
		{
			name:  "seeded orphan alias",
			users: map[string][]byte{"examples/a/main.go": example("_ = recsys.Config{}; _, _ = recsys.Cat, recsys.Dot; recsys.Build()")},
			want:  []string{"Orphan"},
		},
		{
			name: "uses spread over an example, a root test and the README",
			users: map[string][]byte{
				"examples/a/main.go":  example("_ = recsys.Config{}"),
				"integration_test.go": []byte("package recsys_test\n\nimport r \"recsys\"\n\nvar _ = r.Build\nvar _, _ = r.Cat, r.Dot\n"),
				"README.md":           []byte("Use `recsys.Config`.\n\n```go\nv := recsys.Orphan{}\n```\n"),
			},
		},
		{
			name: "comments, strings, other imports and prose are not uses",
			users: map[string][]byte{
				"examples/a/main.go": example("// recsys.Orphan\n_ = \"recsys.Cat\"; _ = recsys.Config{}; _ = recsys.Dot"),
				"examples/b/main.go": []byte("package main\n\nimport recsys \"other\"\n\nvar _ = recsys.Build\n"),
				"README.md":          []byte("recsys.Build in prose\n\n```sh\nrecsys.Cat\n```\n"),
			},
			want: []string{"Build", "Cat", "Orphan"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := facadeOrphans([]byte(facade), tc.users)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("orphans %v, want %v", got, tc.want)
			}
		})
	}
}

// TestFacadeNamesHaveUsers: every name recsys.go exports is used by an
// example, by a ```go block of README.md, or by a root-package test
// other than recsys_test.go (whose alias checks would keep any name
// alive). A name with no user is deleted from the facade, not kept.
func TestFacadeNamesHaveUsers(t *testing.T) {
	facade, err := os.ReadFile("recsys.go")
	if err != nil {
		t.Fatal(err)
	}
	users := make(map[string][]byte)
	add := func(path string) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		users[path] = src
	}
	add("README.md")
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tests {
		if path != "recsys_test.go" {
			add(path)
		}
	}
	err = filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			add(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	orphans, err := facadeOrphans(facade, users)
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) > 0 {
		t.Errorf("recsys.go exports names no example, README snippet or root test uses: %v", orphans)
	}
}
