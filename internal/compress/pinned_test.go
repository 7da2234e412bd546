package compress

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"cbnet/internal/models"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
)

// pinnedNet is one pruned network whose parameters TestPrunedNetworksPinned
// holds to a pinned hash.
type pinnedNet struct {
	name string
	net  *nn.Sequential
}

// pinnedNets prunes every network the package and its callers build:
// AdaDeep's six candidates, SubFlow's ten levels and the lightweight net
// at the overload drill's and cbnet-serve's fractions.
func pinnedNets(t *testing.T) []pinnedNet {
	t.Helper()
	var nets []pinnedNet
	base := models.NewLeNet(rng.New(41))
	for i, cand := range adaDeepCandidates {
		net, err := Prune(base, lenetKeep(cand[0], cand[1], cand[2]))
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, pinnedNet{fmt.Sprintf("adadeep-%d", i), net})
	}
	sf, err := NewSubFlow(models.NewLeNet(rng.New(42)))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range utilizationLevels {
		net, err := sf.NetworkAt(u)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, pinnedNet{fmt.Sprintf("subflow-%.1f", u), net})
	}
	light := models.ExtractLightweight(models.NewBranchyLeNet(rng.New(43), 0.05))
	for _, f := range []float64{1. / 3., 2. / 3.} {
		net, err := Prune(light, map[string]float64{"conv1": f, "bconv": f})
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, pinnedNet{fmt.Sprintf("light-%.2f", f), net})
	}
	return nets
}

// paramsHash is the first 16 hex digits of the SHA-256 of net's
// parameters in Params() order: each one's dimensions, then its values'
// float32 bits, all little-endian uint32s. Parameter names are left out.
func paramsHash(net *nn.Sequential) string {
	h := sha256.New()
	var b [4]byte
	for _, p := range net.Params() {
		for _, d := range p.Value.Shape {
			binary.LittleEndian.PutUint32(b[:], uint32(d))
			h.Write(b[:])
		}
		for _, v := range p.Value.Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestPrunedNetworksPinned holds every pruned network's shapes and
// weights to hashes pinned from the per-layout pruners the generic walk
// replaced: the rankings, the slicing and the layer order must not move
// a bit.
func TestPrunedNetworksPinned(t *testing.T) {
	want := map[string]string{
		"adadeep-0":   "53aec2e322700aab",
		"adadeep-1":   "0f51fa426760046f",
		"adadeep-2":   "866f6f69f4c9b3c9",
		"adadeep-3":   "90d3e06e46201d25",
		"adadeep-4":   "d29995342c3cf630",
		"adadeep-5":   "c076c0b2e7602e88",
		"subflow-0.1": "4185aa96b0e33b0a",
		"subflow-0.2": "c0616ca8d3ee9346",
		"subflow-0.3": "afa4e9541b656032",
		"subflow-0.4": "a4a7ba2050fe4e86",
		"subflow-0.5": "753e99f1424c69b0",
		"subflow-0.6": "78afd0aa70bb7331",
		"subflow-0.7": "cb37e51ee7945f24",
		"subflow-0.8": "bd3fec1cb0504dd4",
		"subflow-0.9": "ab277d99810b4c77",
		"subflow-1.0": "01d814a9cc6e8b80",
		"light-0.33":  "48df827597aa18a0",
		"light-0.67":  "528cf99d3a402654",
	}
	nets := pinnedNets(t)
	if len(nets) != len(want) {
		t.Fatalf("%d pruned networks, %d pinned", len(nets), len(want))
	}
	for _, n := range nets {
		if got := paramsHash(n.net); got != want[n.name] {
			t.Errorf("%s: params hash %s, want %s", n.name, got, want[n.name])
		}
	}
}
