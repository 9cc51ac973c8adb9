package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// provenance identifies what was measured and where.
type provenance struct {
	// Commit is the checkout's git commit, read from .git without running
	// git; "unknown" outside a git checkout.
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func readProvenance(root string) provenance {
	return provenance{
		Commit:     commitID(root),
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

func commitID(root string) string {
	if id := gitHead(filepath.Join(root, ".git")); id != "" {
		return id
	}
	return "unknown"
}

// gitHead resolves HEAD through loose refs and packed-refs.
func gitHead(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)) // detached HEAD
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	f, err := os.Open(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if id, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return id
		}
	}
	return ""
}
