package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// write returns a WriteFile callback that writes data.
func write(data string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, data)
		return err
	}
}

// tmpLeft lists the temporary files WriteFile left beside path.
func tmpLeft(t *testing.T, path string) []string {
	t.Helper()
	left, err := filepath.Glob(path + ".tmp*")
	if err != nil {
		t.Fatal(err)
	}
	return left
}

func TestWriteFileReplacesPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "evidence.snap")
	for _, data := range []string{"first version", "second"} {
		if err := WriteFile(path, write(data)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != data {
			t.Fatalf("file holds %q, want %q", got, data)
		}
	}
	if left := tmpLeft(t, path); len(left) != 0 {
		t.Fatalf("temporary files left behind: %v", left)
	}
}

func TestFailedWriteKeepsPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "evidence.snap")
	if err := WriteFile(path, write("previous")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk gone")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "torn half of a new"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile returned %v, want the write's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "previous" {
		t.Fatalf("failed write changed the file to %q", got)
	}
	if left := tmpLeft(t, path); len(left) != 0 {
		t.Fatalf("temporary files left behind: %v", left)
	}
}

func TestWriteIntoMissingDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "evidence.snap")
	called := false
	err := WriteFile(path, func(w io.Writer) error {
		called = true
		return write("never lands")(w)
	})
	if err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if called {
		t.Fatal("write callback ran although no temporary file could be created")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("file appeared under the missing directory: %v", err)
	}
}
