// Package scenarioflag declares the flags that describe a scenario, as
// opposed to how a command runs and reports it, once for every command.
//
// The base scenario is the -config file, or without one
// DefaultScenario(-nodes, -alg) with the command's own adjustments,
// whose values -h shows as the defaults. Every scenario flag actually
// given (-nodes, -alg, -duration, -reps, -seed, -p2p, -speed, -area,
// -range, -classes, -routing, -traffic, -faults, -workload, -health,
// -peercache) then overrides that base, and the result is named as
// DefaultScenario names its node count and algorithm, unless the file
// set a name. A flag whose field the command sets itself is refused by
// name.
package scenarioflag

import (
	"flag"
	"fmt"
	"path/filepath"
	"slices"
	"strings"

	"manetp2p"
)

// Flags is the scenario flag set registered on one flag.FlagSet.
type Flags struct {
	fs        *flag.FlagSet
	owned     []string
	overrides map[string]func()
	resolve   func() (manetp2p.Scenario, error)
	named     bool // the -config file set a name of its own
}

// Register declares the scenario flags on fs. adjust is the command's own
// change to the default base, whose values are the flags' defaults;
// owned names the flags whose field the command sets itself.
func Register(fs *flag.FlagSet, adjust func(*manetp2p.Scenario), owned ...string) *Flags {
	def := manetp2p.DefaultScenario(50, manetp2p.Regular)
	adjust(&def)
	var (
		config    = fs.String("config", "", "load the base scenario from a JSON file ('-' = stdin); scenario flags given beside it override the file")
		nodes     = fs.Int("nodes", def.NumNodes, "number of ad-hoc nodes")
		algName   = fs.String("alg", strings.ToLower(def.Algorithm.String()), "algorithm: "+LowerNames(manetp2p.Algorithms(), "|"))
		duration  = fs.Float64("duration", def.Duration.Seconds(), "simulated seconds per replication")
		reps      = fs.Int("reps", def.Replications, "replications")
		seed      = fs.Int64("seed", def.Seed, "base random seed")
		fraction  = fs.Float64("p2p", def.MemberFraction, "fraction of nodes in the p2p overlay")
		speed     = fs.Float64("speed", def.MaxSpeed, "max node speed, m/s")
		area      = fs.Float64("area", def.AreaSide, "square arena side, metres")
		rng       = fs.Float64("range", def.Range, "radio range, metres")
		quals     = fs.Bool("classes", len(def.Quals.Classes) > 0, "use phone/PDA/notebook device classes (hybrid)")
		routing   = fs.String("routing", strings.ToLower(def.Routing.String()), "routing substrate: "+LowerNames(manetp2p.Routings(), "|"))
		traffic   = fs.Float64("traffic", def.TrafficBucket.Seconds(), "also print message-rate series with this bucket width in seconds")
		faults    = fs.String("faults", "", "load a fault-injection plan from this JSON file ('-' = stdin) and print recovery metrics")
		workload  = fs.String("workload", "", "load a workload plan from this JSON file ('-' = stdin) and print demand telemetry")
		health    = fs.Float64("health", def.HealthEvery.Seconds(), "resilience-telemetry sampling period in seconds (default 10 when -faults is set)")
		peercache = fs.Bool("peercache", def.Params.PeerCache.Enabled, "enable the peer-cache extension (cached rendezvous before flooding)")
	)
	var sc manetp2p.Scenario
	var err error
	f := &Flags{fs: fs, owned: owned}
	f.overrides = map[string]func(){
		"config":    func() {}, // the base, not an override: applied first by resolve
		"nodes":     func() { sc.NumNodes = *nodes },
		"alg":       func() { sc.Algorithm, err = manetp2p.ParseAlgorithm(*algName) },
		"duration":  func() { sc.Duration = manetp2p.Seconds(*duration) },
		"reps":      func() { sc.Replications = *reps },
		"seed":      func() { sc.Seed = *seed },
		"p2p":       func() { sc.MemberFraction = *fraction },
		"speed":     func() { sc.MaxSpeed = *speed },
		"area":      func() { sc.AreaSide = *area },
		"range":     func() { sc.Range = *rng },
		"routing":   func() { sc.Routing, err = manetp2p.ParseRouting(*routing) },
		"traffic":   func() { sc.TrafficBucket = manetp2p.Seconds(*traffic) },
		"faults":    func() { sc.Faults, err = manetp2p.LoadFaultPlan(*faults) },
		"workload":  func() { sc.Workload, err = manetp2p.LoadWorkloadPlan(*workload) },
		"health":    func() { sc.HealthEvery = manetp2p.Seconds(*health) },
		"peercache": func() { sc.Params.PeerCache.Enabled = *peercache },
		"classes": func() {
			sc.Quals = manetp2p.QualifierConfig{}
			if *quals {
				sc.Quals = manetp2p.DeviceClasses()
			}
		},
	}
	f.resolve = func() (manetp2p.Scenario, error) {
		if *config != "" {
			sc, err = manetp2p.LoadScenario(*config)
			f.named = sc.Name != manetp2p.DefaultScenario(sc.NumNodes, sc.Algorithm).Name
		} else if alg, perr := manetp2p.ParseAlgorithm(*algName); perr != nil {
			err = perr
		} else {
			sc = manetp2p.DefaultScenario(*nodes, alg)
			adjust(&sc)
		}
		fs.Visit(func(fl *flag.Flag) {
			if override := f.overrides[fl.Name]; override != nil && err == nil {
				override()
			}
		})
		if err == nil {
			f.name(&sc)
		}
		return sc, err
	}
	return f
}

// Scenario builds the effective scenario: the base overridden by every
// scenario flag on the command line, or an error naming the owned flags
// given. It reads the files the flags name, so a command calls it once.
func (f *Flags) Scenario() (manetp2p.Scenario, error) {
	if err := f.Refuse(filepath.Base(f.fs.Name())+": the command sets these fields itself", f.owned...); len(f.owned) > 0 && err != nil {
		return manetp2p.Scenario{}, err
	}
	return f.resolve()
}

// Refuse returns an error naming, after why, every flag of names (every
// scenario flag when names is empty) present on the command line, in
// lexical order. Names may be any of the command's flags.
func (f *Flags) Refuse(why string, names ...string) error {
	var set []string
	f.fs.Visit(func(fl *flag.Flag) {
		if slices.Contains(names, fl.Name) || len(names) == 0 && f.overrides[fl.Name] != nil {
			set = append(set, fl.Name)
		}
	})
	if len(set) > 0 {
		return fmt.Errorf("%s; drop -%s", why, strings.Join(set, ", -"))
	}
	return nil
}

// Fix sets the node count and algorithm a command's grid chooses for one
// run of sc, which Scenario built, and names the run as name does.
func (f *Flags) Fix(sc *manetp2p.Scenario, nodes int, alg manetp2p.Algorithm) {
	sc.NumNodes, sc.Algorithm = nodes, alg
	f.name(sc)
}

// name names sc as DefaultScenario names its node count and algorithm,
// unless a -config file set a name of its own, which stands. A file
// name equal to the one its own node count and algorithm give is no
// name of its own: it is what loading a file without one gives.
func (f *Flags) name(sc *manetp2p.Scenario) {
	if !f.named {
		sc.Name = manetp2p.DefaultScenario(sc.NumNodes, sc.Algorithm).Name
	}
}

// LowerNames renders a table of named kinds (manetp2p.Algorithms,
// Routings, …) as their lower-cased names joined by sep.
func LowerNames[T fmt.Stringer](kinds []T, sep string) string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = strings.ToLower(k.String())
	}
	return strings.Join(names, sep)
}
