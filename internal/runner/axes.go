package runner

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/system"
	"repro/internal/workloads"
)

// MultiFlag accumulates repeatable string flags — the CLI carrier for the
// "-set name=value" / "-sweep name=v1,v2,..." payloads ParseKnobAxes and
// config.ParseOverrides consume. It implements flag.Value.
type MultiFlag []string

func (m *MultiFlag) String() string { return fmt.Sprint(*m) }

// Set appends one flag occurrence.
func (m *MultiFlag) Set(s string) error { *m = append(*m, s); return nil }

// KnobAxis is one swept machine dimension: a knob name from the
// config.Knobs() registry and the values it takes. It doubles as the wire
// form of a sweep axis in the service API.
type KnobAxis struct {
	Name   string `json:"name"`
	Values []int  `json:"values"`
}

// ParamAxis is one swept workload dimension: a parameter name from the
// benchmark's workloads registry entry and the values it takes — the
// payload of a "-wsweep name=v1,v2,..." flag or a ?wsweep= query parameter.
type ParamAxis struct {
	Name   string `json:"name"`
	Values []int  `json:"values"`
}

// parseAxis parses one "name=v1,v2,..." axis payload.
func parseAxis(s string) (string, []int, error) {
	name, raw, ok := strings.Cut(s, "=")
	if name = strings.TrimSpace(name); !ok || name == "" || raw == "" {
		return "", nil, fmt.Errorf("runner: bad sweep axis %q (want name=v1,v2,...)", s)
	}
	var values []int
	for _, f := range strings.Split(raw, ",") {
		v, err := workloads.ParseParamValue(strings.TrimSpace(f))
		if err != nil {
			return "", nil, fmt.Errorf("runner: bad value in sweep axis %q: %w", s, err)
		}
		values = append(values, v)
	}
	return name, values, nil
}

// ParseKnobAxis parses the "-sweep name=v1,v2,..." flag payload.
func ParseKnobAxis(s string) (KnobAxis, error) {
	name, values, err := parseAxis(s)
	if err != nil {
		return KnobAxis{}, err
	}
	return KnobAxis{Name: name, Values: values}, nil
}

// ParseKnobAxes parses a list of "-sweep" flag payloads into axes.
func ParseKnobAxes(flags []string) ([]KnobAxis, error) {
	var axes []KnobAxis
	for _, f := range flags {
		ax, err := ParseKnobAxis(f)
		if err != nil {
			return nil, err
		}
		axes = append(axes, ax)
	}
	return axes, nil
}

// ParseParamAxis parses the "-wsweep name=v1,v2,..." flag payload.
func ParseParamAxis(s string) (ParamAxis, error) {
	name, values, err := parseAxis(s)
	if err != nil {
		return ParamAxis{}, err
	}
	return ParamAxis{Name: name, Values: values}, nil
}

// ParseParamAxes parses a list of "-wsweep" flag payloads into axes.
func ParseParamAxes(flags []string) ([]ParamAxis, error) {
	var axes []ParamAxis
	for _, f := range flags {
		ax, err := ParseParamAxis(f)
		if err != nil {
			return nil, err
		}
		axes = append(axes, ax)
	}
	return axes, nil
}

// Axes declares a sweep as the cross product of its dimensions: benchmarks
// x systems x every knob axis x every workload-parameter axis, each point
// carrying the shared Base overrides. It generalizes the fixed benchmark x
// system Matrix to the full machine AND workload parameter spaces — any
// registry knob and any declared workload parameter can be an axis, so
// design-space exploration needs no Go-code changes.
type Axes struct {
	// Benchmarks holds workload spellings — a workloads registry name,
	// optionally followed by ":k=v,k2=v2" parameters fixed on every point
	// ("stream:stride=128"). Defaults to every registered workload.
	Benchmarks []string
	// Systems defaults to AllSystems.
	Systems []config.MemorySystem
	Scale   workloads.Scale

	// Seed applies to every point (0 = default).
	Seed uint64

	// MaxEvents bounds every run (0 = unbounded).
	MaxEvents uint64

	// Base overrides are applied to every point before the axes; a knob
	// axis overwrites its Base value ("-sweep cores=4,8" over a -cores
	// flag folded into Base).
	Base config.Overrides

	// Knobs are the swept machine dimensions, slowest-varying first. The
	// cross product nests them inside benchmarks and systems, so the
	// benchmark-major order of the legacy Matrix is preserved when no knob
	// axis is present.
	Knobs []KnobAxis

	// WParams are the swept workload-parameter dimensions, nested
	// innermost (inside the knob axes). Every axis name must be a declared
	// parameter of every swept workload; axis values override the
	// spelling's fixed parameters.
	WParams []ParamAxis
}

// Specs enumerates the cross product, validating workload spellings, axis
// names and values up front so a typo fails before anything is queued or
// simulated.
func (a Axes) Specs() ([]system.Spec, error) {
	benches := a.Benchmarks
	if len(benches) == 0 {
		benches = workloads.Names()
	}
	systems := a.Systems
	if len(systems) == 0 {
		systems = AllSystems
	}
	n := len(benches) * len(systems)
	seen := map[string]bool{}
	for _, ax := range a.Knobs {
		if _, ok := config.KnobByName(ax.Name); !ok {
			return nil, fmt.Errorf("runner: unknown sweep knob %q (want one of %v)", ax.Name, config.KnobNames())
		}
		if seen[ax.Name] {
			return nil, fmt.Errorf("runner: duplicate sweep axis %q", ax.Name)
		}
		seen[ax.Name] = true
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("runner: sweep axis %q has no values", ax.Name)
		}
		for _, v := range ax.Values {
			if v <= 0 {
				return nil, fmt.Errorf("runner: sweep axis %q value %d must be positive", ax.Name, v)
			}
		}
		n *= len(ax.Values)
	}

	// Workload spellings resolve to (name, fixed params) pairs, and every
	// param axis must be a declared parameter of every swept workload with
	// every value in range — validated per workload, since parameter sets
	// differ between registry entries.
	type workload struct {
		name   string
		params map[string]int
	}
	wls := make([]workload, len(benches))
	seenParam := map[string]bool{}
	for _, ax := range a.WParams {
		if seenParam[ax.Name] {
			return nil, fmt.Errorf("runner: duplicate workload-param axis %q", ax.Name)
		}
		seenParam[ax.Name] = true
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("runner: workload-param axis %q has no values", ax.Name)
		}
		n *= len(ax.Values)
	}
	for i, b := range benches {
		name, params, err := workloads.ParseWorkload(b)
		if err != nil {
			return nil, fmt.Errorf("runner: %w", err)
		}
		e, _ := workloads.Lookup(name)
		for _, ax := range a.WParams {
			for _, v := range ax.Values {
				if err := e.CheckValue(ax.Name, v); err != nil {
					return nil, fmt.Errorf("runner: %w", err)
				}
			}
		}
		wls[i] = workload{name: name, params: params}
	}

	specs := make([]system.Spec, 0, n)
	// point recursively expands the knob axes, then the workload-param
	// axes (innermost), for one (benchmark, system).
	var point func(base system.Spec, wl workload, knobs []KnobAxis, params []ParamAxis) error
	point = func(base system.Spec, wl workload, knobs []KnobAxis, params []ParamAxis) error {
		if len(knobs) > 0 {
			ax := knobs[0]
			for _, v := range ax.Values {
				s := base
				if err := s.Overrides.Set(ax.Name, v); err != nil {
					return err
				}
				if err := point(s, wl, knobs[1:], params); err != nil {
					return err
				}
			}
			return nil
		}
		if len(params) > 0 {
			ax := params[0]
			for _, v := range ax.Values {
				next := wl
				next.params = make(map[string]int, len(wl.params)+1)
				for k, pv := range wl.params {
					next.params[k] = pv
				}
				next.params[ax.Name] = v
				if err := point(base, next, nil, params[1:]); err != nil {
					return err
				}
			}
			return nil
		}
		// The per-axis CheckValue above only bounds each value in
		// isolation; the full merged assignment must also pass the
		// entry's cross-parameter Check, or an invalid point would slip
		// into the sweep and fail only at Execute time — after every
		// valid point was already simulated.
		if err := workloads.ValidateParams(wl.name, wl.params); err != nil {
			return fmt.Errorf("runner: %w", err)
		}
		s := base
		s.Params = workloads.FormatParams(wl.name, wl.params)
		specs = append(specs, s)
		return nil
	}
	for i := range benches {
		for _, sys := range systems {
			base := system.Spec{
				System:    sys,
				Benchmark: wls[i].name,
				Scale:     a.Scale,
				Overrides: a.Base,
				Seed:      a.Seed,
				MaxEvents: a.MaxEvents,
			}
			if err := point(base, wls[i], a.Knobs, a.WParams); err != nil {
				return nil, err
			}
		}
	}
	return specs, nil
}
