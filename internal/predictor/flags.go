package predictor

import (
	"flag"

	"repro/internal/core"
)

// BackendFlags bundles the predictor-selection flags shared by every
// CLI (tagesim, confsim, tageserved, tageload): the TAGE triple
// -config/-mode/-window plus -backend, which accepts any registered
// backend spec ("tage-64K?mode=adaptive", "gshare-64K", "perceptron",
// ...).
//
// Spec() resolves the flags into one backend spec string: -backend wins
// verbatim when set; otherwise the triple is a typed builder for a
// TAGE spec (TAGEVariantSpec), so `-config 64K -mode adaptive` and
// `-backend tage-64K?mode=adaptive` select the identical predictor.
type BackendFlags struct {
	Config  *string
	Mode    *string
	Backend *string
	Window  *int
}

// AddBackendFlags registers the shared predictor-selection flags on fs
// with the command's default configuration and mode.
func AddBackendFlags(fs *flag.FlagSet, defConfig, defMode string) *BackendFlags {
	return &BackendFlags{
		Config: fs.String("config", defConfig,
			"TAGE predictor configuration: 16K, 64K or 256K (ignored when -backend is set)"),
		Mode: fs.String("mode", defMode,
			"TAGE automaton mode: standard, probabilistic or adaptive (ignored when -backend is set)"),
		Backend: fs.String("backend", "",
			"backend spec, e.g. tage-64K?mode=adaptive, gshare-64K, perceptron (overrides -config/-mode/-window)"),
		Window: fs.Int("window", 0,
			"TAGE medium-conf-bim window: 0 = default 8, -1 = disabled (ignored when -backend is set)"),
	}
}

// Explicit reports whether -backend was set.
func (f *BackendFlags) Explicit() bool { return *f.Backend != "" }

// Spec resolves the flags into one backend spec string. With -backend
// set it is returned verbatim (the registry validates it); otherwise the
// TAGE spec for -config/-mode/-window is built.
func (f *BackendFlags) Spec() (string, error) {
	if *f.Backend != "" {
		return *f.Backend, nil
	}
	mode, err := core.ParseMode(*f.Mode)
	if err != nil {
		return "", err
	}
	return TAGEVariantSpec(*f.Config, core.Options{Mode: mode, BimWindow: *f.Window}), nil
}
