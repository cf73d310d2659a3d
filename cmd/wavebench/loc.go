package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// countLOC counts the lines of the non-test Go files of the module at
// root, per internal package (by its name), for wavefront and for cmd,
// and in total. Hidden directories, testdata and nested modules (this
// benchmark among them) are not part of the module and are skipped.
func countLOC(root string) (map[string]int, int, error) {
	counts := make(map[string]int)
	total := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := bytes.Count(b, []byte("\n"))
		total += n
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		switch parts := strings.Split(filepath.ToSlash(rel), "/"); {
		case len(parts) > 2 && parts[0] == "internal":
			counts[parts[1]] += n
		case len(parts) > 1 && (parts[0] == "wavefront" || parts[0] == "cmd"):
			counts[parts[0]] += n
		}
		return nil
	})
	return counts, total, err
}
