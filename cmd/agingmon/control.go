package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"agingmf"
	"agingmf/internal/control"
	"agingmf/internal/detect"
	"agingmf/internal/runtime"
)

// controlPlane is agingmon's slice of the fleet control plane: every
// monitor verdict is published as a canonical alert on a bus (served at
// GET /api/alerts on the telemetry listener) and, with -rejuv-policy,
// fed into a rejuvenation controller. The controller is driven
// synchronously — Handle on the monitoring goroutine, never Start —
// because in sim mode the actuator reboots the simulated machine, which
// is confined to that goroutine.
type controlPlane struct {
	bus *agingmf.AlertBus
	rej *agingmf.Rejuvenator
	src string
	act agingmf.Actuator
}

// newControlPlane builds the bus, parses -rejuv-policy and mounts the
// API endpoints. The actuator defaults to a dry-run logger; sim mode
// swaps in the machine's reboot before the first sample flows.
func newControlPlane(opt options, tel *runtime.Telemetry, src string) (*controlPlane, error) {
	cp := &controlPlane{
		bus: agingmf.NewAlertBus(256),
		src: src,
		act: &agingmf.DryRunActuator{Events: tel.Events},
	}
	factory, err := agingmf.ParseRejuvenationPolicy(opt.rejuvPolicy)
	if err != nil {
		return nil, fmt.Errorf("-rejuv-policy: %w", err)
	}
	if factory != nil {
		// The bus is publish-only here (the rejuvenate alerts land in the
		// /api/alerts ring); alerts reach the controller via Handle.
		cp.rej, err = agingmf.NewRejuvenator(agingmf.RejuvenatorConfig{
			Bus:      cp.bus,
			Actuator: agingmf.ActuatorFunc(func(s string) error { return cp.act.Rejuvenate(s) }),
			Policy:   factory,
			Events:   tel.Events,
			Obs:      tel.Reg,
		})
		if err != nil {
			return nil, fmt.Errorf("-rejuv-policy: %w", err)
		}
	}
	tel.Mount("GET /api/alerts", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"total":  cp.bus.Total(),
			"alerts": cp.bus.Recent(100),
		})
	}))
	tel.Mount("GET /api/rejuv", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if cp.rej == nil {
			http.Error(w, "rejuvenation disabled (no -rejuv-policy)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(cp.rej.Status())
	}))
	return cp, nil
}

// setActuator rebinds what a rejuvenation decision executes.
func (cp *controlPlane) setActuator(a agingmf.Actuator) { cp.act = a }

// publish records the alert and drives the controller synchronously.
func (cp *controlPlane) publish(a agingmf.Alert) {
	cp.bus.Publish(a)
	if cp.rej != nil {
		cp.rej.Handle(a)
	}
}

// jump publishes one detector alarm through the shared detect→alert
// translation, so agingmon's jump alerts match agingd's field for field.
func (cp *controlPlane) jump(j agingmf.DualJump) {
	cp.publish(control.FromDetectEvent(cp.src, detect.HolderEvent(j)))
}

// phase publishes one phase transition.
func (cp *controlPlane) phase(sample int, from, to agingmf.Phase) {
	cp.publish(agingmf.PhaseChangeAlert(cp.src, sample, from, to))
}

// rejuvenations reports how many restarts the controller actuated.
func (cp *controlPlane) rejuvenations() int {
	if cp.rej == nil {
		return 0
	}
	return cp.rej.Total()
}
