package main

import (
	"context"
	"errors"
	"fmt"
	"math/cmplx"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/gae"
	"repro/internal/phasemacro"
	"repro/internal/phlogic"
	"repro/internal/ppv"
	"repro/internal/pss"
	"repro/internal/ringosc"
	"repro/internal/serve"
	"repro/internal/variation"
)

// warmSpecs are the rings the service holds warm: the served requests pick
// among them, so every /v1/ppv, sweep and logic request is an engine hit.
var warmSpecs = []serve.RingSpec{{}, {Variant: "2n1p"}, {Stages: 5}, {Vdd: 3.3}}

// adderBits are the shared adder netlists (served and transistor level).
var adderBits = []int{2, 4, 6, 8}

// syncAmp is the SYNC amplitude the transistor-level lowering is calibrated
// at (the value the repository's adder cross-checks use).
const syncAmp = 120e-6

// fixture is everything built before the first measured operation.
type fixture struct {
	eng    *engine.Engine
	hs     *http.Server
	served chan error
	client *serve.Client

	nomRing *ringosc.Ring
	nomSol  *pss.Solution
	nomPPV  *ppv.PPV
	warm    []*ppv.PPV // in-process PPVs of warmSpecs (same engine, same pointers)
	circCfg phlogic.CircuitConfig
	adders  map[int]*phlogic.Netlist
	adderJS map[int][]byte

	storeDir string
	store    *engine.DiskStore

	// nomModel is the nominal variation corner's SHIL model.
	nomModel *gae.Model
}

// newFixture starts an in-process service on loopback with one client
// connection, warms its engine over HTTP, calibrates the transistor-level
// lowering and opens an empty disk store.
func newFixture(ctx context.Context) (fx *fixture, err error) {
	fx = &fixture{adders: map[int]*phlogic.Netlist{}, adderJS: map[int][]byte{}}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()
	fx.eng = engine.New(engine.Options{Workers: 1})
	srv, err := serve.New(serve.Options{Engine: fx.eng})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fx.hs = &http.Server{Handler: srv.Handler()}
	fx.served = make(chan error, 1)
	go func() { fx.served <- fx.hs.Serve(ln) }()
	fx.client = &serve.Client{
		BaseURL: "http://" + ln.Addr().String(),
		HTTPClient: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		MaxAttempts: 1,
	}
	for _, spec := range warmSpecs {
		if _, err := fx.client.PPV(ctx, serve.PPVRequest{Ring: spec}); err != nil {
			return nil, fmt.Errorf("warm %+v: %w", spec, err)
		}
		cfg, err := spec.Config()
		if err != nil {
			return nil, err
		}
		_, _, p, err := fx.eng.RingPPV(ctx, cfg)
		if err != nil {
			return nil, err
		}
		fx.warm = append(fx.warm, p)
	}
	fx.nomRing, fx.nomSol, fx.nomPPV, err = fx.eng.RingPPV(ctx, ringosc.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cal, err := phasemacro.Calibrate(&phasemacro.Latch{P: fx.nomPPV, Node: 0, Out: 0, SyncAmp: syncAmp}, 10e3)
	if err != nil {
		return nil, err
	}
	cr, cc, inv, err := ringosc.CouplingFromCalibration(cal.Coupling, fx.nomSol.F0)
	if err != nil {
		return nil, err
	}
	fx.circCfg = phlogic.CircuitConfig{
		Ring: ringosc.DefaultConfig(), F1: fx.nomSol.F0,
		SyncAmp: syncAmp, SyncPhase: cal.SyncPhase,
		InputAmp: cmplx.Abs(cal.OutPhasor0), OutAngle: cmplx.Phase(cal.OutPhasor0),
		CouplingR: cr, CouplingC: cc, Invert: inv,
		ClockCycles: 120,
	}
	for _, bits := range adderBits {
		n := phlogic.RippleCarryAdder(bits)
		js, err := n.JSON()
		if err != nil {
			return nil, err
		}
		fx.adders[bits], fx.adderJS[bits] = n, js
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	if fx.storeDir, err = os.MkdirTemp(buildDir, "store-"); err != nil {
		return nil, err
	}
	if fx.store, err = engine.OpenDiskStore(fx.storeDir); err != nil {
		return nil, err
	}
	base := ringosc.DefaultConfig()
	nom, err := variation.EvaluateBatchEng(ctx, variation.NewEngine(1), base, []ringosc.Config{base})
	if err != nil {
		return nil, err
	}
	fx.nomModel = nom[0].Model
	return fx, nil
}

// buildDir holds everything a run writes; it is the build directory of
// run.sh, relative to the checkout root the benchmark runs from.
const buildDir = ".bench_build"

// close stops the service, waits for it, and removes the disk store.
func (fx *fixture) close() {
	if fx.hs != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := fx.hs.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: serve shutdown:", err)
		}
		cancel()
		if err := <-fx.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
		if t, ok := fx.client.HTTPClient.Transport.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
		fx.hs = nil
	}
	if fx.storeDir != "" {
		os.RemoveAll(fx.storeDir)
		fx.storeDir = ""
	}
}

// storeKeys are the disk-store keys the engine writes for a ring config
// (the engine's default 1024-step PSS options).
func storeKeys(cfg ringosc.Config) (pssKey, ppvKey string) {
	fp := engine.Fingerprint("ring", cfg, pss.Options{StepsPerPeriod: 1024})
	return "pss/" + fp, "ppv/" + fp
}
