// Command tkipattack runs the full §5 WPA-TKIP attack end to end in the
// in-process simulator: train the per-TSC model, make the victim transmit
// identical packets, capture and filter frames, compute per-position
// likelihoods, walk the ICV-pruned candidate list, and recover the Michael
// MIC key. It then demonstrates the impact by forging a packet the network
// accepts.
//
// Training and capture both persist: the model (the paper's 10-CPU-year
// artifact) is trained once and reloaded via -model, and captures are
// checkpointed shards that can be killed, resumed, and merged. Capture
// walks the job's granules (-capture-chunk frames, as attackd does); exact
// mode rewrites -checkpoint at every granule end, and Ctrl-C or SIGTERM
// flushes it and exits 130:
//
//	# train once, then capture a checkpointed shard
//	tkipattack -model tkip.model -copies 4718592 -seed 1 \
//	           -checkpoint shard1.snap -collect-only
//	# resume after a kill (same flags + -resume)
//	tkipattack -model tkip.model -copies 4718592 -seed 1 \
//	           -checkpoint shard1.snap -resume shard1.snap -collect-only
//	# second shard, then merge both and run the recovery phase
//	tkipattack -model tkip.model -copies 4718592 -seed 2 -checkpoint shard2.snap -collect-only
//	tkipattack -model tkip.model -copies 0 -merge shard1.snap,shard2.snap
//
// Online mode closes the loop: capture and decode interleave on a cadence,
// each round's candidates are verified by the Michael-MIC/ICV trailer
// oracle (with a test forgery confirming the recovered key against the
// network, §7.4), and the attack stops at the first confirmed trailer:
//
//	tkipattack -online                          # geometric cadence 2^20, 2^21, ...
//	tkipattack -online -decode-every 1048576    # decode every 2^20 frames
//
// Fleet-worker mode turns the driver into one capture node of a distributed
// run coordinated by cmd/fleetd (every worker must load the same trained
// model the coordinator uses):
//
//	tkipattack -fleet-worker coordinator:7100 -model tkip.model -worker-id m1
//
// Trace mode ingests monitor-mode captures instead of simulating the air —
// the §5.4 pipeline (radiotap/802.11 parsing, unique-length filtering, TSC
// de-duplication) over pcap/pcapng files — and -write-pcap produces such
// captures from the simulator (the round trip is pinned bitwise against
// in-process capture):
//
//	tkipattack -write-pcap tkip.pcap -copies 9437184
//	tkipattack -pcap tkip.pcap -copies 9437184 -model tkip.model
//	tkipattack -fleet-worker coordinator:7100 -model tkip.model -pcap 'shard-*.pcap'
package main

import (
	"os"

	"rc4break/internal/job"
)

func main() { os.Exit(job.Main("tkip", os.Args[1:])) }
