package dataset

import (
	"runtime"
	"sync"
)

// ForShards runs fn(0..n-1) over a pool of worker goroutines — the one
// worker pool of the repository: Engine.Run generates its keystream shards
// through it, and the attack simulators fan their independent evidence
// shards out through it. Shards are handed to workers from a queue, so workers
// only bounds parallelism: as long as each fn(i) writes only shard-local
// state, results are identical for any worker count. workers <= 0 means
// GOMAXPROCS. The first error (in shard order) is returned; remaining
// queued shards still run so partial state stays consistent.
func ForShards(workers, n int, fn func(shard int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
		return firstError(errs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return firstError(errs)
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
