// Package durable is the one way the program writes a file: every
// snapshot, capture file and trace export goes through WriteFile, so a
// reader of any of them sees either the previous file or the complete new
// one, never a torn write.
package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
)

// WriteFile streams write's output into a temporary file beside path
// (named path's base plus ".tmp" and a random suffix), fsyncs it, renames
// it over path and fsyncs the directory, so once WriteFile returns nil the
// new file survives a power cut. If write fails, the temporary file is
// removed; if the process dies first, only the temporary file is left.
// Either way nothing appears under path, and a previous file there
// survives intact.
func WriteFile(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if err = errors.Join(err, tmp.Close()); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err == nil {
		err = errors.Join(d.Sync(), d.Close())
	}
	return err
}
