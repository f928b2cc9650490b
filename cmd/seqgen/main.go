// Command seqgen evolves nucleotide sequences along a Newick genealogy,
// mirroring the `seq-gen -mF84 -l <len> -s <scale> < treefile` invocation
// of the paper's data pipeline (§6.1). The tree is read from stdin (or a
// file argument) and the alignment prints in PHYLIP format on stdout. One
// alignment is produced per input tree.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mpcgs/internal/gtree"
	"mpcgs/internal/newick"
	"mpcgs/internal/phylip"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

func main() {
	var (
		length = flag.Int("l", 200, "sequence length in base pairs")
		scale  = flag.Float64("s", 1.0, "branch length scaling factor")
		model  = flag.String("m", "F84", "substitution model: F84, F81, or JC69")
		kappa  = flag.Float64("kappa", 2.0, "F84 transition/transversion rate ratio")
		seed   = flag.Uint64("seed", 1, "PRNG seed")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: seqgen [flags] [treefile]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	in := os.Stdin
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		in = f
	} else if flag.NArg() > 1 {
		flag.Usage()
		os.Exit(2)
	}
	data, err := io.ReadAll(in)
	if err != nil {
		fatalf("reading trees: %v", err)
	}
	parsed, err := newick.ParseAll(string(data))
	if err != nil {
		fatalf("%v", err)
	}
	if len(parsed) == 0 {
		fatalf("no trees in input")
	}
	m, err := simulationModel(*model, *kappa)
	if err != nil {
		fatalf("%v", err)
	}
	for i, nt := range parsed {
		t, err := gtree.FromNewick(nt)
		if err != nil {
			fatalf("tree %d: %v", i+1, err)
		}
		aln, err := seqgen.Simulate(t, seqgen.Config{
			Length: *length,
			Scale:  *scale,
			Model:  m,
			Seed:   *seed + uint64(i),
		})
		if err != nil {
			fatalf("tree %d: %v", i+1, err)
		}
		if err := phylip.Write(os.Stdout, aln); err != nil {
			fatalf("%v", err)
		}
	}
}

// simulationModel is the substitution model sequences evolve under:
// uniform base frequencies, and kappa for F84.
func simulationModel(name string, kappa float64) (subst.Model, error) {
	switch name {
	case "F84", "f84":
		return subst.NewF84(subst.Uniform, kappa, true)
	case "F81", "f81":
		return subst.NewF81(subst.Uniform, true)
	case "JC69", "jc69", "JC":
		return subst.NewJC69(), nil
	default:
		return nil, fmt.Errorf("unknown model %q", name)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "seqgen: "+format+"\n", args...)
	os.Exit(1)
}
