package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// recordFS is the host FS that records each operation Replace performs, as
// "op name" with name relative to dir, and fails the one numbered failAt
// (counting from 1; 0 fails none) before it runs.
type recordFS struct {
	OS
	dir    string
	ops    []string
	failAt int
}

var errInjected = errors.New("injected failure")

func (fs *recordFS) step(op, name string) error {
	rel, _ := filepath.Rel(fs.dir, name)
	fs.ops = append(fs.ops, op+" "+rel)
	if len(fs.ops) == fs.failAt {
		return errInjected
	}
	return nil
}

func (fs *recordFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err := fs.step("open", name); err != nil {
		return nil, err
	}
	f, err := fs.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return recordFile{f, fs}, nil
}

func (fs *recordFS) CreateTemp(dir, pattern string) (File, error) {
	if err := fs.step("create", filepath.Join(dir, pattern)); err != nil {
		return nil, err
	}
	f, err := fs.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return recordFile{f, fs}, nil
}

func (fs *recordFS) Rename(oldpath, newpath string) error {
	if err := fs.step("rename", newpath); err != nil {
		return err
	}
	return fs.OS.Rename(oldpath, newpath)
}

func (fs *recordFS) Remove(name string) error {
	fs.step("remove", name)
	return fs.OS.Remove(name)
}

type recordFile struct {
	File
	fs *recordFS
}

func (f recordFile) Write(p []byte) (int, error) {
	if err := f.fs.step("write", f.Name()); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f recordFile) Sync() error {
	if err := f.fs.step("sync", f.Name()); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f recordFile) Close() error {
	err := f.fs.step("close", f.Name())
	if cerr := f.File.Close(); err == nil {
		err = cerr
	}
	return err
}

// TestReplaceOrderAndFailures pins Replace's operation order — temp create,
// write, fsync, close, rename, directory fsync — and fails each step in
// turn: the error reaches the caller, no temp is left behind, and the
// target holds the old bytes until the rename lands and the new ones after.
func TestReplaceOrderAndFailures(t *testing.T) {
	write := func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	}
	dir := t.TempDir()
	fs := &recordFS{dir: dir}
	if err := Replace(fs, dir, "f", write); err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, op := range fs.ops {
		ops = append(ops, strings.TrimRight(op, "0123456789"))
	}
	want := []string{"create f.tmp-*", "write f.tmp-", "sync f.tmp-", "close f.tmp-", "rename f", "open .", "sync .", "close ."}
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("operations\n got %q\nwant %q", ops, want)
	}
	const renameStep = 5
	for step := 1; step <= len(want); step++ {
		t.Run(fmt.Sprint(step, " ", want[step-1]), func(t *testing.T) {
			dir := t.TempDir()
			target := filepath.Join(dir, "f")
			if err := os.WriteFile(target, []byte("old"), 0o600); err != nil {
				t.Fatal(err)
			}
			err := Replace(&recordFS{dir: dir, failAt: step}, dir, "f", write)
			if !errors.Is(err, errInjected) {
				t.Fatalf("err = %v, want the injected failure", err)
			}
			got, rerr := os.ReadFile(target)
			wantBytes := "old"
			if step > renameStep {
				wantBytes = "new"
			}
			if rerr != nil || string(got) != wantBytes {
				t.Fatalf("target holds %q (%v), want %q", got, rerr, wantBytes)
			}
			entries, _ := os.ReadDir(dir)
			if len(entries) != 1 {
				t.Fatalf("directory holds %d files, want the target alone", len(entries))
			}
		})
	}
	t.Run("write error", func(t *testing.T) {
		dir := t.TempDir()
		err := Replace(OS{}, dir, "f", func(io.Writer) error { return errInjected })
		if !errors.Is(err, errInjected) {
			t.Fatalf("err = %v, want the write callback's", err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Fatalf("directory holds %d files, want none", len(entries))
		}
	})
}

// TestReplaceWritesMode0600: a replaced file is readable by its owner
// alone, whatever the process umask lets a plain create make — checkpoints
// and log heads are tenant data.
func TestReplaceWritesMode0600(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "f")
	if err := os.WriteFile(target, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Replace(OS{}, dir, "f", func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(target)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o600 {
		t.Fatalf("mode %v, want -rw-------", fi.Mode().Perm())
	}
}
