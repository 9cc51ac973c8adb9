// Package durable is the serving stack's one way to the disk: FS, the file
// operations the write-ahead log, the checkpoints and the routing table
// use; OS, the host's; and Replace, the one atomic replace of every file
// that must never tear — a checkpoint, a log head, the routing table. A
// test substitutes an FS to fail or observe any single operation.
package durable

import (
	"io"
	"os"
	"path/filepath"
)

// File is an open file of an FS.
type File interface {
	io.ReadWriteSeeker
	io.WriterAt
	io.Closer
	Truncate(size int64) error
	Sync() error
	Name() string
}

// FS holds the file operations its callers use; each behaves as the os
// function of the same name.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]os.DirEntry, error)
	Stat(name string) (os.FileInfo, error)
	MkdirAll(path string, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	Truncate(name string, size int64) error
}

// OS is the host's file system: each method calls the os function of its
// name.
type OS struct{}

func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return osFile(os.OpenFile(name, flag, perm))
}
func (OS) CreateTemp(dir, pattern string) (File, error) { return osFile(os.CreateTemp(dir, pattern)) }
func (OS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (OS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (OS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                     { return os.Remove(name) }
func (OS) RemoveAll(path string) error                  { return os.RemoveAll(path) }
func (OS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }

// osFile returns an opened *os.File as a File, and a nil File on error: a
// nil *os.File inside the interface would not compare equal to nil.
func osFile(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Replace atomically replaces dir/name with the bytes write produces: it
// writes them to a temp file named name.tmp-<random> in dir, with mode
// 0600 as os.CreateTemp makes it, fsyncs and closes it, renames it over
// dir/name and fsyncs dir. A crash at any instant leaves the old file or
// the new one, never a tear. On an error before the rename lands the temp
// is removed and dir/name is untouched; an error from the directory fsync
// means the new file is in place but may not survive a crash.
func Replace(fsys FS, dir, name string, write func(io.Writer) error) error {
	f, err := fsys.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return SyncDir(fsys, dir)
}

// SyncDir fsyncs directory dir, making the renames and unlinks inside it
// durable.
func SyncDir(fsys FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
