package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"rc4break/internal/durable"
)

// Source is one capture stream to ingest: a file on disk or an already-
// open reader. The attack packages' collectors walk an ordered list of
// sources as one logical capture (shard files concatenate), through one
// shared loop (EachSource) so the open/parse/close/error-context plumbing
// exists exactly once.
type Source struct {
	// Name labels the source in errors ("" for anonymous readers).
	Name string
	// Open yields the stream and an optional closer.
	Open func() (io.Reader, io.Closer, error)
}

// FileSources builds sources that open capture files on demand.
func FileSources(paths []string) []Source {
	out := make([]Source, len(paths))
	for i, path := range paths {
		path := path
		out[i] = Source{
			Name: path,
			Open: func() (io.Reader, io.Closer, error) {
				f, err := os.Open(path)
				if err != nil {
					return nil, nil, err
				}
				return f, f, nil
			},
		}
	}
	return out
}

// ReaderSources wraps in-memory or piped streams as sources.
func ReaderSources(readers []io.Reader) []Source {
	out := make([]Source, len(readers))
	for i, r := range readers {
		r := r
		out[i] = Source{Open: func() (io.Reader, io.Closer, error) { return r, nil, nil }}
	}
	return out
}

// WriteFile writes a capture file at path: write emits the packets, the
// container follows the extension (.pcapng writes pcapng, anything else
// classic pcap) and writes are buffered. The file goes through
// durable.WriteFile, so it appears under path only complete: a write that
// fails or is interrupted leaves nothing there.
func WriteFile(path string, linkType uint32, write func(PacketWriter) error) error {
	return durable.WriteFile(path, func(f io.Writer) error {
		bw := bufio.NewWriterSize(f, 1<<20)
		var pw PacketWriter
		var err error
		if strings.HasSuffix(path, ".pcapng") {
			pw, err = NewPcapNGWriter(bw, linkType)
		} else {
			pw, err = NewPcapWriter(bw, linkType)
		}
		if err == nil {
			err = write(pw)
		}
		if err != nil {
			return err
		}
		return bw.Flush()
	})
}

// EachSource ingests the sources in order, stopping early once done
// reports the caller's observation range is filled. Errors are wrapped
// with the source name when it has one.
func EachSource(sources []Source, done func() bool, ingest func(*Reader) error) error {
	for _, src := range sources {
		if done() {
			return nil
		}
		stream, closer, err := src.Open()
		if err == nil {
			var r *Reader
			if r, err = NewReader(stream); err == nil {
				err = ingest(r)
			}
			if closer != nil {
				closer.Close()
			}
		}
		if err != nil {
			if src.Name != "" {
				return fmt.Errorf("%s: %w", src.Name, err)
			}
			return err
		}
	}
	return nil
}
