// Command biasgen generates RC4 keystream statistics datasets and saves
// them for later analysis by biastest — the repository's version of the
// paper's §3.2 distributed worker system, including its operational
// realities: multi-hour runs are generated in checkpointed chunks that
// survive a kill, and shards generated on independent machines (different
// -lanebase or -seed values) merge into one dataset.
//
// A dataset is keys 0..N-1 of the key lane -lanebase under the -seed master:
// key k of a lane is fixed by (seed, lane, k), so the file's bytes do not
// depend on -workers or -checkpoint-every, a chunk is simply the next key
// range of the lane, and distinct lanes never share a key.
//
// Usage:
//
//	biasgen -kind single -positions 513 -keys 1048576 -out single.gob
//	biasgen -kind digraph -positions 64 -keys 1048576 -out consec.gob
//
// Checkpointed generation (kill and rerun to resume):
//
//	biasgen -kind single -positions 64 -keys 16777216 \
//	        -checkpoint-every 1048576 -out single.gob -resume
//
// Sharded generation across machines, then merge:
//
//	biasgen -kind single -positions 64 -keys 8388608 -lanebase 0     -out shard0.gob
//	biasgen -kind single -positions 64 -keys 8388608 -lanebase 1     -out shard1.gob
//	biasgen -merge shard0.gob,shard1.gob -out all.gob
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"rc4break/internal/cliutil"
	"rc4break/internal/dataset"
)

// oldLayoutKeys are metadata pins only files from the earlier per-worker
// key layout carry: there the key population depended on the worker count
// and the chunking, so such a file can neither be extended nor merged with
// lane-indexed shards without mixing unrelated keys.
var oldLayoutKeys = []string{"workers", "checkpoint-every"}

func main() {
	kind := flag.String("kind", "single", "dataset kind: single | digraph")
	positions := flag.Int("positions", 64, "keystream positions to cover")
	keys := flag.Uint64("keys", 1<<20, "number of random 16-byte RC4 keys")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	out := flag.String("out", "", "output file (required)")
	seed := flag.Uint64("seed", 0, "master key seed (first 8 bytes of the AES master)")
	laneBase := flag.Uint64("lanebase", 0, "key lane; give shards on different machines different lanes")
	every := flag.Uint64("checkpoint-every", 0, "keys per chunk; > 0 writes -out after every chunk so a killed run can resume")
	resume := flag.Bool("resume", false, "continue a checkpointed run from -out (-seed and -lanebase must match the original run)")
	merge := flag.String("merge", "", "comma-separated dataset files to merge into -out (no generation)")
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "biasgen: -out is required")
		os.Exit(2)
	}

	if *merge != "" {
		mergeDatasets(cliutil.SplitList(*merge), *out)
		return
	}

	var master [16]byte
	for i := 0; i < 8; i++ {
		master[i] = byte(*seed >> (8 * i))
	}

	var factory func() dataset.Observer
	switch *kind {
	case "single":
		factory = func() dataset.Observer { return dataset.NewSingleByteCounts(*positions) }
	case "digraph":
		factory = func() dataset.Observer { return dataset.NewDigraphCounts(*positions) }
	default:
		fmt.Fprintf(os.Stderr, "biasgen: unknown kind %q\n", *kind)
		os.Exit(2)
	}

	// The checkpoint metadata pins every flag the key sequence depends on:
	// resuming under a different seed or lane would silently mix unrelated
	// key populations, so it is rejected.
	genMeta := map[string]uint64{"seed": *seed, "lanebase": *laneBase}

	// Resume: reload the checkpoint and continue the lane at the first key
	// it does not hold, so the resumed run generates exactly the keys the
	// uninterrupted run would have.
	var obs dataset.Observer
	var done uint64
	if *resume {
		loaded, meta, err := dataset.LoadFileMeta(*out)
		if os.IsNotExist(err) {
			// Bootstrap-friendly: "kill and rerun" keeps one command line,
			// so a missing checkpoint simply means this is the first run.
			fmt.Printf("no checkpoint at %s yet; starting fresh\n", *out)
		} else if err != nil {
			fatal(fmt.Errorf("resume %s: %w", *out, err))
		} else {
			if err := validateResume(loaded, *kind, *positions); err != nil {
				fatal(err)
			}
			if meta == nil {
				fatal(fmt.Errorf("resume %s: file carries no generation parameters (not a biasgen checkpoint)", *out))
			}
			if err := checkLayout(meta); err != nil {
				fatal(fmt.Errorf("resume %s: %w", *out, err))
			}
			for k, want := range genMeta {
				got, ok := meta[k]
				if !ok {
					fatal(fmt.Errorf("resume %s: checkpoint records no -%s value", *out, k))
				}
				if got != want {
					fatal(fmt.Errorf("resume %s: checkpoint was generated with -%s=%d, flags request %d", *out, k, got, want))
				}
			}
			obs = loaded
			done = dataset.KeysObserved(loaded)
			if done >= *keys {
				fmt.Printf("resume %s: already holds %d keys (target %d); nothing to do\n", *out, done, *keys)
				return
			}
			fmt.Printf("resuming from %s: %d/%d keys done\n", *out, done, *keys)
		}
	}

	// Ctrl-C cancels the in-flight chunk; completed chunks are already on
	// disk, so the run resumes from the last checkpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	chunkSize := *keys
	if *every > 0 {
		chunkSize = *every
	}
	for done < *keys {
		n := min(chunkSize, *keys-done)
		chunkObs, err := dataset.Run(dataset.Config{
			Keys:     n,
			Workers:  *workers,
			Master:   master,
			Ctx:      ctx,
			Lane:     *laneBase,
			FirstKey: done,
		}, factory)
		if err != nil {
			if ctx.Err() != nil {
				switch {
				case *every > 0 && done > 0:
					fmt.Fprintf(os.Stderr, "biasgen: interrupted at %d/%d keys; rerun with -resume to continue\n", done, *keys)
				case *every > 0:
					fmt.Fprintf(os.Stderr, "biasgen: interrupted before the first chunk completed; nothing checkpointed yet\n")
				default:
					fmt.Fprintf(os.Stderr, "biasgen: interrupted at %d/%d keys; no checkpoint written (set -checkpoint-every to make runs resumable)\n", done, *keys)
				}
				os.Exit(130)
			}
			fatal(err)
		}
		if obs == nil {
			obs = chunkObs
		} else if err := obs.Merge(chunkObs); err != nil {
			fatal(err)
		}
		done += n
		if *every > 0 {
			if err := dataset.SaveFileMeta(*out, obs, genMeta); err != nil {
				fatal(err)
			}
			fmt.Printf("checkpoint: %d/%d keys -> %s\n", done, *keys, *out)
		}
	}

	// With -checkpoint-every the loop already wrote -out after the final
	// chunk; only unchunked runs still need their single save.
	if *every == 0 {
		if err := dataset.SaveFileMeta(*out, obs, genMeta); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("wrote %s dataset: %d keys x %d positions -> %s\n", *kind, *keys, *positions, *out)
}

// mergeDatasets combines shard files into one dataset; shapes must match,
// and shards whose generation parameters show they drew overlapping keys
// (identical seed and lane base) are rejected rather than double-counted,
// as are old-layout files. Files without metadata (plain saves or earlier
// merges) carry no lineage and are merged as-is.
func mergeDatasets(paths []string, out string) {
	var merged dataset.Observer
	var total uint64
	seen := make(map[[2]uint64]string)
	for _, p := range paths {
		obs, meta, err := dataset.LoadFileMeta(p)
		if err != nil {
			fatal(fmt.Errorf("merge %s: %w", p, err))
		}
		if meta != nil {
			if err := checkLayout(meta); err != nil {
				fatal(fmt.Errorf("merge %s: %w", p, err))
			}
			id := [2]uint64{meta["seed"], meta["lanebase"]}
			if prev, dup := seen[id]; dup {
				fatal(fmt.Errorf("merge %s: same seed/lanebase as %s — the shards drew the same keys and would be double-counted", p, prev))
			}
			seen[id] = p
		}
		if merged == nil {
			merged = obs
		} else if err := merged.Merge(obs); err != nil {
			fatal(fmt.Errorf("merge %s: %w", p, err))
		}
		total = dataset.KeysObserved(merged)
		fmt.Printf("merged %s (%d keys, total %d)\n", p, dataset.KeysObserved(obs), total)
	}
	if merged == nil {
		fatal(fmt.Errorf("no dataset files to merge"))
	}
	if err := dataset.SaveFile(out, merged); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote merged dataset: %d keys -> %s\n", total, out)
}

// checkLayout refuses metadata written under the per-worker key layout.
func checkLayout(meta map[string]uint64) error {
	for _, k := range oldLayoutKeys {
		if _, ok := meta[k]; ok {
			return fmt.Errorf("file pins -%s, so its keys follow the old per-worker layout; regenerate it with this biasgen", k)
		}
	}
	return nil
}

// validateResume checks that the checkpoint matches the requested dataset
// shape before any counter is extended.
func validateResume(obs dataset.Observer, kind string, positions int) error {
	switch o := obs.(type) {
	case *dataset.SingleByteCounts:
		if kind != "single" || o.Positions != positions {
			return fmt.Errorf("checkpoint is single/%d positions, flags request %s/%d", o.Positions, kind, positions)
		}
	case *dataset.DigraphCounts:
		if kind != "digraph" || o.Positions != positions {
			return fmt.Errorf("checkpoint is digraph/%d positions, flags request %s/%d", o.Positions, kind, positions)
		}
	default:
		return fmt.Errorf("checkpoint holds %T, which biasgen does not generate", obs)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "biasgen:", err)
	os.Exit(1)
}
