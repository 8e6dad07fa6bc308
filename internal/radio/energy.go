package radio

// EnergyConfig parameterizes the linear transmit/receive energy model
// commonly used for MANET studies (cost = fixed per frame + per byte).
// The zero value disables energy accounting entirely (infinite battery),
// which is the setting for the paper's headline figures; finite budgets
// drive the network-lifetime sweeps from the paper's future-work list.
type EnergyConfig struct {
	Capacity   float64 // joules; <= 0 means infinite
	TxPerFrame float64 // joules per transmitted frame
	TxPerByte  float64 // joules per transmitted byte
	RxPerFrame float64 // joules per received frame
	RxPerByte  float64 // joules per received byte
}

// DefaultEnergy returns a finite-battery profile loosely calibrated to
// early-2000s WaveLAN measurements (tx ≈ 1.9× rx cost per byte), scaled
// so that a node relaying heavy flooding traffic for tens of simulated
// minutes exhausts its budget.
func DefaultEnergy(capacityJ float64) EnergyConfig {
	return EnergyConfig{
		Capacity:   capacityJ,
		TxPerFrame: 454e-6,
		TxPerByte:  1.9e-6,
		RxPerFrame: 356e-6,
		RxPerByte:  0.5e-6,
	}
}

// Battery tracks one node's remaining energy.
type Battery struct {
	cfg       EnergyConfig
	remaining float64
	spentTx   float64
	spentRx   float64
	infinite  bool
}

// NewBattery creates a battery from the config; Capacity <= 0 yields an
// infinite battery that still records spend totals.
func NewBattery(cfg EnergyConfig) *Battery {
	return &Battery{cfg: cfg, remaining: cfg.Capacity, infinite: cfg.Capacity <= 0}
}

// SpendTx debits a transmission of size bytes and reports whether the
// battery just became empty.
func (b *Battery) SpendTx(size int) bool {
	cost := b.cfg.TxPerFrame + b.cfg.TxPerByte*float64(size)
	b.spentTx += cost
	return b.debit(cost)
}

// SpendRx debits a reception of size bytes and reports whether the
// battery just became empty.
func (b *Battery) SpendRx(size int) bool {
	cost := b.cfg.RxPerFrame + b.cfg.RxPerByte*float64(size)
	b.spentRx += cost
	return b.debit(cost)
}

func (b *Battery) debit(cost float64) bool {
	if b.infinite {
		return false
	}
	before := b.remaining
	b.remaining -= cost
	return before > 0 && b.remaining <= 0
}

// Empty reports whether a finite battery has been exhausted.
func (b *Battery) Empty() bool { return !b.infinite && b.remaining <= 0 }

// Spent returns total joules debited for transmit and receive.
func (b *Battery) Spent() (tx, rx float64) { return b.spentTx, b.spentRx }
