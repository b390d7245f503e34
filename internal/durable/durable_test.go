package durable

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"baywatch/internal/faultinject"
)

var errInjected = errors.New("injected I/O fault")

// testPoints are the opsloop day file's registered points; WriteFile
// treats any set alike.
var testPoints = Points{
	Create:  faultinject.PointOpsloopDayCreate,
	Write:   faultinject.PointOpsloopDayWrite,
	Sync:    faultinject.PointOpsloopDaySync,
	Rename:  faultinject.PointOpsloopDayRename,
	Dirsync: faultinject.PointOpsloopDayDirsync,
}

func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			tmps = append(tmps, e.Name())
		}
	}
	return tmps
}

// TestWriteFileStepOrder pins the five checks, in step order, once each.
func TestWriteFileStepOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bin")
	s := faultinject.New(1)
	t.Cleanup(faultinject.Install(s.Hook()))
	if err := WriteFile(path, []byte("new"), testPoints); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, h := range s.Trace() {
		got = append(got, h.Point)
	}
	want := []string{string(testPoints.Create), string(testPoints.Write), string(testPoints.Sync),
		string(testPoints.Rename), string(testPoints.Dirsync)}
	if !slices.Equal(got, want) {
		t.Fatalf("checks = %v, want %v", got, want)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "new" {
		t.Fatalf("target = %q (%v), want %q", data, err, "new")
	}
}

// TestWriteFileStepFaults fails and crashes each step in turn. Before the
// rename the target keeps exactly its old bytes, from the rename's
// completion on it holds exactly the new ones, and RemoveTemp leaves no
// temp file either way; a retry with no fault then lands the new bytes.
func TestWriteFileStepFaults(t *testing.T) {
	const oldData, newData = "old contents", "new contents, longer than the old"
	steps := []faultinject.Point{testPoints.Create, testPoints.Write, testPoints.Sync,
		testPoints.Rename, testPoints.Dirsync}
	for _, p := range steps {
		for _, crash := range []bool{false, true} {
			name := fmt.Sprintf("%s/crash=%v", p, crash)
			dir := t.TempDir()
			path := filepath.Join(dir, "state.bin")
			if err := os.WriteFile(path, []byte(oldData), 0o644); err != nil {
				t.Fatal(err)
			}
			s := faultinject.New(1)
			if crash {
				s.CrashAt(p, 1)
			} else {
				s.FailAt(p, 1, errInjected)
			}
			restore := faultinject.Install(s.Hook())
			c, err := faultinject.Run(func() error {
				return WriteFile(path, []byte(newData), testPoints)
			})
			restore()
			switch {
			case crash && c == nil:
				t.Fatalf("%s: no crash (err %v)", name, err)
			case !crash && !errors.Is(err, errInjected):
				t.Fatalf("%s: err = %v, want the injected fault", name, err)
			}
			want := oldData
			if p == testPoints.Dirsync {
				want = newData
			}
			if data, err := os.ReadFile(path); err != nil || string(data) != want {
				t.Fatalf("%s: target = %q (%v), want %q", name, data, err, want)
			}
			RemoveTemp(dir)
			if tmps := tempFiles(t, dir); len(tmps) != 0 {
				t.Fatalf("%s: RemoveTemp left %v", name, tmps)
			}
			if err := WriteFile(path, []byte(newData), Points{}); err != nil {
				t.Fatalf("%s: retry: %v", name, err)
			}
			if data, _ := os.ReadFile(path); string(data) != newData {
				t.Fatalf("%s: after retry target = %q", name, data)
			}
		}
	}
}

func TestSyncDir(t *testing.T) {
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("SyncDir of a missing directory succeeded")
	}
}

// TestQuarantineNeverOverwrites moves a third file of one name aside:
// both earlier quarantined copies keep their bytes and the newcomer takes
// the next free suffix.
func TestQuarantineNeverOverwrites(t *testing.T) {
	dir := t.TempDir()
	qdir := filepath.Join(dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		t.Fatal(err)
	}
	existing := map[string]string{"state.bin": "first", "state.bin.1": "second"}
	for name, data := range existing {
		if err := os.WriteFile(filepath.Join(qdir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "state.bin")
	if err := os.WriteFile(path, []byte("third"), 0o644); err != nil {
		t.Fatal(err)
	}
	dst, err := Quarantine(dir, path)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(qdir, "state.bin.2"); dst != want {
		t.Fatalf("dst = %s, want %s", dst, want)
	}
	existing["state.bin.2"] = "third"
	for name, want := range existing {
		if data, err := os.ReadFile(filepath.Join(qdir, name)); err != nil || string(data) != want {
			t.Fatalf("%s = %q (%v), want %q", name, data, err, want)
		}
	}
	if _, err := os.Lstat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("quarantined file still in place (%v)", err)
	}
}

// TestQuarantineReportsFailure: a quarantine directory that cannot be
// made, or a free name that cannot be checked, is an error and leaves the
// file in place — never a retry loop.
func TestQuarantineReportsFailure(t *testing.T) {
	t.Run("quarantine is a file", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "quarantine"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "state.bin")
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if dst, err := Quarantine(dir, path); err == nil {
			t.Fatalf("Quarantine succeeded (dst %s)", dst)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("file moved or lost: %v", err)
		}
	})
	t.Run("name too long", func(t *testing.T) {
		dir := t.TempDir()
		qdir := filepath.Join(dir, "quarantine")
		if err := os.MkdirAll(qdir, 0o755); err != nil {
			t.Fatal(err)
		}
		name := strings.Repeat("n", 250) + ".bin" // 254 bytes: name.1 is past NAME_MAX
		if _, err := os.Lstat(filepath.Join(qdir, name+".1")); !errors.Is(err, syscall.ENAMETOOLONG) {
			t.Skipf("filesystem takes 256-byte names (Lstat: %v)", err)
		}
		for _, p := range []string{filepath.Join(qdir, name), filepath.Join(dir, name)} {
			if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan error, 1)
		go func() {
			_, err := Quarantine(dir, filepath.Join(dir, name))
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, syscall.ENAMETOOLONG) {
				t.Fatalf("err = %v, want ENAMETOOLONG", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Quarantine did not return: the free-name search loops on an Lstat error")
		}
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("file moved or lost: %v", err)
		}
	})
}

// TestDurableOwnsRenames keeps this package the module's only renamer:
// an os.Rename or os.CreateTemp in any other non-test file is a write
// path that skips the fsync discipline above. The nested bench module and
// testdata are not part of the module's program.
func TestDurableOwnsRenames(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if path == self || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		for _, call := range osCalls(f, "Rename", "CreateTemp") {
			rel, _ := filepath.Rel(root, fset.Position(call.Pos()).Filename)
			t.Errorf("%s:%d: os.%s outside internal/durable; write through durable.WriteFile or durable.Quarantine",
				rel, fset.Position(call.Pos()).Line, call.Sel.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go files parsed")
	}
}

// osCalls returns the selector expressions in f that name one of the os
// package's funcs, under whatever name f imports os.
func osCalls(f *ast.File, funcs ...string) []*ast.SelectorExpr {
	local := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "os" {
			local = "os"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	if local == "" || local == "_" {
		return nil
	}
	var found []*ast.SelectorExpr
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == local && slices.Contains(funcs, sel.Sel.Name) {
			found = append(found, sel)
		}
		return true
	})
	return found
}
