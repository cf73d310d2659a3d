// Package atomicfile replaces files so that a crash mid-write never
// leaves a torn one behind: readers see the old contents or the new
// contents in full.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write replaces the file at path with what write produces, with
// permissions perm. It writes a temporary file in the same directory,
// syncs it, renames it over path and syncs the directory, so the rename
// itself survives a crash. If write or any step before the rename fails,
// the temporary file is removed and path keeps its previous contents.
func Write(path string, perm os.FileMode, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Chmod(perm); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err = d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
