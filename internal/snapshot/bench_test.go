package snapshot

import (
	"math/rand"
	"testing"
)

// BenchmarkBlobKey addresses a 13 MiB payload, the size of a 17-link
// cookie lane's snapshot at 4-byte counts (17·2^16 cells of 4+8 bytes):
// the blob the job store hashes on every evidence checkpoint.
func BenchmarkBlobKey(b *testing.B) {
	payload := make([]byte, 17<<16*12)
	rand.New(rand.NewSource(1)).Read(payload)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BlobKey("rc4break.service.blob", payload)
	}
}
