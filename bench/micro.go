package main

import "time"

// timerProbe is a handler that does nothing but arm and cancel timers,
// through a timed context.
type timerProbe struct {
	ctx  tracedCtx
	left *int // timed calls still to make, shared by the network's probes (single loop)
}

func (p *timerProbe) Init(ctx nodeCtx) { ctx.SetTimer(time.Millisecond, nil) }

func (p *timerProbe) HandleMessage(nodeCtx, nodeID, message) {}

func (p *timerProbe) HandleTimer(ctx nodeCtx, _ any) {
	if *p.left <= 0 {
		return
	}
	*p.left -= 3
	p.ctx.nodeCtx = ctx
	p.ctx.CancelTimer(p.ctx.SetTimer(time.Second, nil))
	p.ctx.SetTimer(time.Millisecond+time.Duration(ctx.Self())*time.Microsecond, nil)
}

// microTimers returns ns per Context.SetTimer/CancelTimer call on a
// simulated network whose nodes each keep one timer armed.
func microTimers(calls int, seed uint64) float64 {
	const nodes = 1024
	g, err := randomRegular(nodes, 8, seed)
	if err != nil {
		return 0
	}
	net := newNetwork(g, seed, 1, false)
	left := calls
	probes := make([]*timerProbe, 0, nodes)
	net.SetHandlers(func(nodeID) handler {
		p := &timerProbe{left: &left}
		probes = append(probes, p)
		return p
	})
	net.Start()
	net.Run(0)
	var stat callStat
	for _, p := range probes {
		stat.merge(p.ctx.timer)
	}
	return stat.perCall()
}
