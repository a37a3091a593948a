package rc4break

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"rc4break/internal/cliutil"
	"rc4break/internal/cookieattack"
	"rc4break/internal/job"
	"rc4break/internal/online"
	"rc4break/internal/snapshot"
	"rc4break/internal/tkip"
)

// laneBench is one fleet lane for BenchmarkLaneSnapshot: a captured lane
// and a fresh pool that opens and merges its snapshot.
type laneBench struct {
	name  string
	build func() (lane, pool online.Evidence, err error)
	once  sync.Once
	lane  online.Evidence
	pool  online.Evidence
	snap  []byte
	err   error
}

func (l *laneBench) get(b *testing.B) *laneBench {
	l.once.Do(func() {
		if l.lane, l.pool, l.err = l.build(); l.err == nil {
			var buf bytes.Buffer
			l.err = l.lane.WriteSnapshot(&buf)
			l.snap = buf.Bytes()
		}
	})
	if l.err != nil {
		b.Fatal(l.err)
	}
	return l
}

// cookieLane is a model-mode cookie lane of 2^27 records against a secret
// of cookieLen characters (cookieLen+1 chain links).
func cookieLane(cookieLen int) func() (online.Evidence, online.Evidence, error) {
	return func() (online.Evidence, online.Evidence, error) {
		secret := strings.Repeat("C", cookieLen)
		cfg, _, err := job.CookieLayout(secret)
		if err != nil {
			return nil, nil, err
		}
		stream := snapshot.StreamInfo{Mode: "model", Seed: 1}
		lane, err := cookieattack.CollectLane(cfg, []byte(secret), stream, cliutil.LaneSeed(1, 0), 1<<27, 0)
		if err != nil {
			return nil, nil, err
		}
		pool, err := cookieattack.New(cfg)
		return lane, pool, err
	}
}

// tkipLane is a model-mode TKIP lane of 2^22 frames at the job's trailer
// positions, over a synthetic model.
func tkipLane() (online.Evidence, online.Evidence, error) {
	positions := job.TKIPTrailer()
	model := tkip.SyntheticModel(positions[len(positions)-1], 1.0/768, 1)
	trailer := make([]byte, len(positions))
	rand.New(rand.NewSource(1)).Read(trailer)
	stream := snapshot.StreamInfo{Mode: "model", Seed: 1}
	lane, err := tkip.CollectLane(model, positions, trailer, stream, cliutil.LaneSeed(1, 0), 1<<22, 0)
	if err != nil {
		return nil, nil, err
	}
	pool, err := tkip.NewAttack(model, positions)
	return lane, pool, err
}

// BenchmarkLaneSnapshot times one fleet lane's evidence crossing from a
// worker into the coordinator's pool. write is the worker's
// WriteSnapshot into a buffer; open is the coordinator's OpenShard (the
// pool's Validate) plus the shard's Merge. Lanes: 8- and 17-link cookie
// lanes of 2^27 records (7- and 16-character cookies) and one TKIP lane.
// MB/s is over the snapshot's bytes.
func BenchmarkLaneSnapshot(b *testing.B) {
	lanes := []*laneBench{
		{name: "cookie-8", build: cookieLane(7)},
		{name: "cookie-17", build: cookieLane(16)},
		{name: "tkip", build: tkipLane},
	}
	b.Run("write", func(b *testing.B) {
		for _, l := range lanes {
			b.Run(l.name, func(b *testing.B) {
				l := l.get(b)
				var buf bytes.Buffer
				b.SetBytes(int64(len(l.snap)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf.Reset()
					if err := l.lane.WriteSnapshot(&buf); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
	b.Run("open", func(b *testing.B) {
		for _, l := range lanes {
			b.Run(l.name, func(b *testing.B) {
				l := l.get(b)
				b.SetBytes(int64(len(l.snap)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sh, err := l.pool.OpenShard(l.snap)
					if err == nil {
						err = sh.Merge()
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}
