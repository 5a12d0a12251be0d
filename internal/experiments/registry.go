package experiments

import (
	"fmt"
	"sort"
)

// Runner executes one experiment and returns a printable result.
type Runner func(Options) (fmt.Stringer, error)

// wrap adapts a typed harness to the Runner signature.
func wrap[T fmt.Stringer](f func(Options) (T, error)) Runner {
	return func(o Options) (fmt.Stringer, error) { return f(o) }
}

// registry maps experiment ids (listed by Names) to harnesses.
var registry = map[string]Runner{
	"fig1":             wrap(Fig1),
	"table2":           wrap(Table2),
	"fig2":             wrap(Fig2),
	"fig3":             wrap(Fig3),
	"fig4":             wrap(Fig4),
	"fig5":             wrap(Fig5),
	"fig7":             wrap(Fig7),
	"table4":           wrap(Table4),
	"table5":           wrap(Table5),
	"table6":           wrap(Table6),
	"fig8":             wrap(Fig8),
	"ecg":              wrap(ECG),
	"fig9":             wrap(Fig9),
	"async-sweep":      wrap(AsyncSweep),
	"ablation-switch":  wrap(AblationSwitches),
	"unseen-dg":        wrap(UnseenDG),
	"ablation-alpha":   wrap(AblationEMAAlpha),
	"ablation-degrees": wrap(AblationDegrees),
	"train-serve":      wrap(TrainWhileServe),
}

// Names returns the sorted experiment ids.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes the named experiment after checking the options
// (Options.Apply).
func Run(name string, opts Options) (fmt.Stringer, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	if err := opts.Apply(); err != nil {
		return nil, err
	}
	return r(opts)
}
