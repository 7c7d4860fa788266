// Package human holds the NL2SVA-Human benchmark collateral: thirteen
// expert-style formal testbenches with seventy-nine natural-language
// specification / reference-assertion pairs, matching the composition
// of the paper's Table 6:
//
//	1R1W FIFO       4 variations   20 assertions
//	Multi-Port FIFO 1 variation     6 assertions
//	Arbiter         4 variations   37 assertions
//	FSM             2 variations    4 assertions
//	Counter         1 variation     5 assertions
//	RAM             1 variation     7 assertions
//
// The testbenches and the FIFO assertion set follow the sources
// printed in the paper's Appendix A; the remaining collateral is
// written in the same house style (tb_reset convention, modeling code
// with internal state, signal-usage hints inside the NL).
package human

// Pair is one test instance: an NL specification and the expert
// reference assertion.
type Pair struct {
	ID        string
	NL        string // specification text ("Create a SVA assertion that checks: " prefix added by the prompt builder)
	Reference string // reference SVA assertion source
}

// Testbench is one formal testbench with its assertion pairs.
type Testbench struct {
	Name     string
	Category string
	Top      string
	Source   string
	Pairs    []Pair
}

// Categories in Table 6 order.
var Categories = []string{"1R1W FIFO", "Multi-Port FIFO", "Arbiter", "FSM", "Counter", "RAM"}

// Testbenches returns the full benchmark (13 testbenches, 79 pairs).
func Testbenches() []*Testbench {
	var out []*Testbench
	out = append(out, fifoVariants()...)
	out = append(out, multiPortFIFO())
	out = append(out, arbiters()...)
	out = append(out, fsms()...)
	out = append(out, counter())
	out = append(out, ram())
	return out
}

// Stats returns per-category (variations, assertions) for Table 6.
func Stats() map[string][2]int {
	s := map[string][2]int{}
	for _, tb := range Testbenches() {
		v := s[tb.Category]
		v[0]++
		v[1] += len(tb.Pairs)
		s[tb.Category] = v
	}
	return s
}

// ---- 1R1W FIFO (4 variations, 5 pairs each) ---------------------------

func fifoSource(depth, width int, bypass bool) string {
	byp := ""
	bypDecl := ""
	if bypass {
		bypDecl = "wire bypass;\nassign bypass = wr_push && fifo_empty && rd_vld;\n"
		byp = "wire rd_bypass_ok;\nassign rd_bypass_ok = bypass && (wr_data == rd_data);\n"
	}
	return `
module fifo_1r1w_tb (
  clk,
  reset_,
  wr_vld,
  wr_data,
  wr_ready,
  rd_vld,
  rd_data,
  rd_ready
);
parameter FIFO_DEPTH = ` + itoa(depth) + `;
parameter DATA_WIDTH = ` + itoa(width) + `;
localparam FIFO_DEPTH_log2 = $clog2(FIFO_DEPTH);
input clk;
input reset_;
input wr_vld;
input [DATA_WIDTH-1:0] wr_data;
input wr_ready;
input rd_vld;
input [DATA_WIDTH-1:0] rd_data;
input rd_ready;
wire wr_push;
wire rd_pop;
wire tb_reset;
assign tb_reset = (reset_ == 1'b0);
wire fifo_full;
assign wr_push = wr_vld && wr_ready;
assign rd_pop = rd_vld && rd_ready;
reg [DATA_WIDTH-1:0] fifo_array [FIFO_DEPTH-1:0];
reg [FIFO_DEPTH_log2-1:0] fifo_rd_ptr;
reg fifo_empty;
wire [DATA_WIDTH-1:0] fifo_out_data;
` + bypDecl + byp + `
always @(posedge clk) begin
  if (!reset_) fifo_array[0] <= 'd0;
  else if (wr_push) begin
    fifo_array[0] <= wr_data;
  end else fifo_array[0] <= fifo_array[0];
end
for (genvar i = 1; i < FIFO_DEPTH; i++ ) begin : loop_id
  always @(posedge clk) begin
    if (!reset_) fifo_array[i] <= 'd0;
    else if (wr_push) begin
      fifo_array[i] <= fifo_array[i-1];
    end else fifo_array[i] <= fifo_array[i];
  end
end
always @(posedge clk) begin
  if (!reset_) begin
    fifo_rd_ptr <= 'd0;
  end else if (wr_push && fifo_empty) begin
    fifo_rd_ptr <= 'd0;
  end else if (rd_pop && !fifo_empty && (fifo_rd_ptr == 'd0)) begin
    fifo_rd_ptr <= 'd0;
  end else begin
    fifo_rd_ptr <= fifo_rd_ptr + wr_push - rd_pop;
  end
  if (!reset_) begin
    fifo_empty <= 'd1;
  end else if (rd_pop && !fifo_empty && (fifo_rd_ptr == 'd0) && !wr_push) begin
    fifo_empty <= 'd1;
  end else if ((fifo_rd_ptr != 'd0) || wr_push && !rd_pop) begin
    fifo_empty <= 'd0;
  end
end
assign fifo_full = (fifo_rd_ptr == (FIFO_DEPTH - 1)) && !fifo_empty;
assign fifo_out_data = fifo_array[fifo_rd_ptr];
endmodule
`
}

// fifoPairs are the five specifications from the paper's Appendix A.1
// (Figure 11), reused across the FIFO variations as in the benchmark.
func fifoPairs(variant string) []Pair {
	return []Pair{
		{
			ID: "fifo_1r1w_" + variant + "_0",
			NL: "that the FIFO does not underflow, assuming no bypass. Use the signals 'rd_pop' and 'fifo_empty'.",
			Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (fifo_empty && rd_pop) !== 1'b1
);`,
		},
		{
			ID: "fifo_1r1w_" + variant + "_1",
			NL: "that the FIFO does not overflow, assuming no bypass. Use the signals 'wr_push' and 'fifo_full'.",
			Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (fifo_full && wr_push) !== 1'b1
);`,
		},
		{
			ID: "fifo_1r1w_" + variant + "_2",
			NL: "that the fifo output and read data are consistent, assuming no bypass. Use the signals 'rd_pop', 'rd_data', and 'fifo_out_data'.",
			Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (rd_pop && (fifo_out_data != rd_data)) !== 1'b1
);`,
		},
		{
			ID: "fifo_1r1w_" + variant + "_3",
			NL: "that when response is pending, data is eventually popped from the FIFO. Use the signals 'rd_pop' and 'fifo_empty'.",
			Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  !fifo_empty |-> strong(##[0:$] rd_pop)
);`,
		},
		{
			ID: "fifo_1r1w_" + variant + "_4",
			NL: "that when there is a write push to the FIFO, data is eventually popped. Use the signals 'rd_pop' and 'wr_push'.",
			Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  wr_push |-> strong(##[0:$] rd_pop)
);`,
		},
	}
}

func fifoVariants() []*Testbench {
	return []*Testbench{
		{
			Name: "fifo_1r1w", Category: "1R1W FIFO", Top: "fifo_1r1w_tb",
			Source: fifoSource(4, 1, false), Pairs: fifoPairs("basic"),
		},
		{
			Name: "fifo_1r1w_bypass", Category: "1R1W FIFO", Top: "fifo_1r1w_tb",
			Source: fifoSource(4, 1, true), Pairs: fifoPairs("bypass"),
		},
		{
			Name: "fifo_1r1w_deep", Category: "1R1W FIFO", Top: "fifo_1r1w_tb",
			Source: fifoSource(8, 1, false), Pairs: fifoPairs("deep"),
		},
		{
			Name: "fifo_1r1w_wide", Category: "1R1W FIFO", Top: "fifo_1r1w_tb",
			Source: fifoSource(4, 4, false), Pairs: fifoPairs("wide"),
		},
	}
}

// ---- Multi-Port FIFO (1 variation, 6 pairs) ----------------------------

func multiPortFIFO() *Testbench {
	src := `
module fifo_mp_tb (
  clk,
  reset_,
  wr0_vld,
  wr1_vld,
  wr0_data,
  wr1_data,
  rd_vld,
  rd_data,
  rd_ready
);
parameter DATA_WIDTH = 2;
input clk;
input reset_;
input wr0_vld;
input wr1_vld;
input [DATA_WIDTH-1:0] wr0_data;
input [DATA_WIDTH-1:0] wr1_data;
input rd_vld;
input [DATA_WIDTH-1:0] rd_data;
input rd_ready;
wire tb_reset;
assign tb_reset = (reset_ == 1'b0);
wire rd_pop;
assign rd_pop = rd_vld && rd_ready;
wire [1:0] push_count;
assign push_count = wr0_vld + wr1_vld;
reg [3:0] occupancy;
wire fifo_empty;
wire fifo_full;
assign fifo_empty = (occupancy == 'd0);
assign fifo_full = (occupancy >= 'd8);
wire [1:0] pop_count;
assign pop_count = rd_pop ? 'd1 : 'd0;
always @(posedge clk) begin
  if (!reset_) occupancy <= 'd0;
  else occupancy <= occupancy + push_count - pop_count;
end
wire both_push;
assign both_push = wr0_vld && wr1_vld;
endmodule
`
	return &Testbench{
		Name: "fifo_multiport", Category: "Multi-Port FIFO", Top: "fifo_mp_tb",
		Source: src,
		Pairs: []Pair{
			{
				ID: "fifo_mp_0",
				NL: "that the FIFO does not underflow on a pop from empty. Use the signals 'rd_pop' and 'fifo_empty'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (fifo_empty && rd_pop) !== 1'b1
);`,
			},
			{
				ID: "fifo_mp_1",
				NL: "that no write is accepted on either port while the FIFO is full. Use the signals 'wr0_vld', 'wr1_vld', and 'fifo_full'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (fifo_full && (wr0_vld || wr1_vld)) !== 1'b1
);`,
			},
			{
				ID: "fifo_mp_2",
				NL: "that the occupancy never exceeds eight entries. Use the signal 'occupancy'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  occupancy <= 4'd8
);`,
			},
			{
				ID: "fifo_mp_3",
				NL: "that a simultaneous push on both write ports is eventually followed by a pop. Use the signals 'both_push' and 'rd_pop'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  both_push |-> strong(##[0:$] rd_pop)
);`,
			},
			{
				ID: "fifo_mp_4",
				NL: "that the push count reflects the two write valids. Use the signals 'push_count', 'wr0_vld', and 'wr1_vld'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  push_count == (wr0_vld + wr1_vld)
);`,
			},
			{
				ID: "fifo_mp_5",
				NL: "that when the FIFO is not empty, data is eventually popped. Use the signals 'fifo_empty' and 'rd_pop'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  !fifo_empty |-> strong(##[0:$] rd_pop)
);`,
			},
		},
	}
}

// ---- Arbiters (4 variations, 37 pairs) ---------------------------------

func arbiterSource(kind string) string {
	extra := ""
	switch kind {
	case "rr":
		extra = `
reg [1:0] rr_ptr;
always @(posedge clk) begin
  if (!reset_) rr_ptr <= 'd0;
  else if (|tb_gnt) rr_ptr <= rr_ptr + 'd1;
end
`
	case "reverse_priority":
		extra = `
wire hold;
wire cont_gnt;
assign hold = busy && (tb_gnt == 'd0);
assign cont_gnt = busy && (tb_gnt != 'd0) && (tb_gnt == last_gnt);
`
	case "mask":
		extra = `
wire [3:0] masked_req;
assign masked_req = tb_req & req_mask;
`
	}
	maskPort := ""
	maskDecl := ""
	if kind == "mask" {
		maskPort = ",\n  req_mask"
		maskDecl = "input [3:0] req_mask;\n"
	}
	return `
module arbiter_tb (
  clk,
  reset_,
  tb_req,
  tb_gnt,
  busy` + maskPort + `
);
input clk;
input reset_;
input [3:0] tb_req;
input [3:0] tb_gnt;
input busy;
` + maskDecl + `wire tb_reset;
assign tb_reset = (reset_ == 1'b0);
reg [3:0] last_gnt;
always @(posedge clk) begin
  if (!reset_) last_gnt <= 'd0;
  else if (|tb_gnt) last_gnt <= tb_gnt;
end
wire any_req;
assign any_req = |tb_req;
wire any_gnt;
assign any_gnt = |tb_gnt;
` + extra + `
endmodule
`
}

// commonArbiterPairs are shared structural checks (6 per variant).
func commonArbiterPairs(variant string) []Pair {
	return []Pair{
		{
			ID: "arbiter_" + variant + "_0",
			NL: "that the grant vector is always one-hot or zero. Use the signal 'tb_gnt'.",
			Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  $onehot0(tb_gnt)
);`,
		},
		{
			ID: "arbiter_" + variant + "_1",
			NL: "that a grant is only given to a requesting client. Use the signals 'tb_req' and 'tb_gnt'.",
			Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  ((tb_gnt & ~tb_req) != 'd0) !== 1'b1
);`,
		},
		{
			ID: "arbiter_" + variant + "_2",
			NL: "whether starvation occurs, i.e. check that each request from client is eventually granted. Use the signals 'busy', 'tb_req', and 'tb_gnt'.",
			Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (!busy && |tb_req && (tb_gnt == 'd0)) !== 1'b1
);`,
		},
		{
			ID: "arbiter_" + variant + "_3",
			NL: "that no grant is given while the arbiter is busy. Use the signals 'busy' and 'tb_gnt'.",
			Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  busy |-> (tb_gnt == 'd0)
);`,
		},
		{
			ID: "arbiter_" + variant + "_4",
			NL: "that a request with the arbiter idle is eventually granted. Use the signals 'any_req', 'busy', and 'any_gnt'.",
			Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (any_req && !busy) |-> strong(##[0:$] any_gnt)
);`,
		},
		{
			ID: "arbiter_" + variant + "_5",
			NL: "that the recorded last grant tracks the grant vector one cycle later. Use the signals 'tb_gnt' and 'last_gnt'.",
			Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  |tb_gnt |=> (last_gnt == $past(tb_gnt))
);`,
		},
	}
}

func arbiters() []*Testbench {
	rr := &Testbench{
		Name: "arbiter_rr", Category: "Arbiter", Top: "arbiter_tb",
		Source: arbiterSource("rr"),
		Pairs: append(commonArbiterPairs("rr"), []Pair{
			{
				ID: "arbiter_rr_6",
				NL: "that the round-robin pointer advances after every grant. Use the signals 'tb_gnt' and 'rr_ptr'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  |tb_gnt |=> (rr_ptr == ($past(rr_ptr) + 2'd1))
);`,
			},
			{
				ID: "arbiter_rr_7",
				NL: "that the round-robin pointer holds when no grant is given. Use the signals 'tb_gnt' and 'rr_ptr'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (tb_gnt == 'd0) |=> $stable(rr_ptr)
);`,
			},
			{
				ID: "arbiter_rr_8",
				NL: "that back-to-back grants never go to the same client. Use the signals 'tb_gnt' and 'last_gnt'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (|tb_gnt && |last_gnt) |-> (tb_gnt != last_gnt)
);`,
			},
			{
				ID: "arbiter_rr_9",
				NL: "that the pointer resets to zero after reset. Use the signal 'rr_ptr'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  $rose(reset_) |-> (rr_ptr == 2'd0)
);`,
			},
		}...),
	}
	fixed := &Testbench{
		Name: "arbiter_fixed", Category: "Arbiter", Top: "arbiter_tb",
		Source: arbiterSource("fixed"),
		Pairs: append(commonArbiterPairs("fixed"), []Pair{
			{
				ID: "arbiter_fixed_6",
				NL: "that client zero has absolute priority: when it requests and the arbiter grants, the grant goes to client zero. Use the signals 'tb_req', 'tb_gnt', and 'any_gnt'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (tb_req[0] && any_gnt) |-> tb_gnt[0]
);`,
			},
			{
				ID: "arbiter_fixed_7",
				NL: "that client three is only granted when no other client requests. Use the signals 'tb_req' and 'tb_gnt'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  tb_gnt[3] |-> (tb_req[2:0] == 3'd0)
);`,
			},
			{
				ID: "arbiter_fixed_8",
				NL: "that a grant never goes to two priority levels at once. Use the signal 'tb_gnt'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  !($countones(tb_gnt) > 1)
);`,
			},
		}...),
	}
	rev := &Testbench{
		Name: "arbiter_reverse_priority", Category: "Arbiter", Top: "arbiter_tb",
		Source: arbiterSource("reverse_priority"),
		Pairs: append(commonArbiterPairs("reverse_priority"), []Pair{
			{
				ID: "arbiter_reverse_priority_6",
				NL: "that the arbiter is never on hold or busy or on continued grant at the same time. Use the signals 'busy', 'hold', and 'cont_gnt'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  !$onehot0({hold,busy,cont_gnt}) !== 1'b1
);`,
			},
			{
				ID: "arbiter_reverse_priority_7",
				NL: "that a hold cycle means the arbiter is busy without granting. Use the signals 'hold', 'busy', and 'tb_gnt'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  hold |-> (busy && (tb_gnt == 'd0))
);`,
			},
			{
				ID: "arbiter_reverse_priority_8",
				NL: "that a continued grant repeats the previous grant. Use the signals 'cont_gnt', 'tb_gnt', and 'last_gnt'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  cont_gnt |-> (tb_gnt == last_gnt)
);`,
			},
		}...),
	}
	mask := &Testbench{
		Name: "arbiter_mask", Category: "Arbiter", Top: "arbiter_tb",
		Source: arbiterSource("mask"),
		Pairs: append(commonArbiterPairs("mask"), []Pair{
			{
				ID: "arbiter_mask_6",
				NL: "that a masked-off client is never granted. Use the signals 'tb_gnt' and 'req_mask'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  ((tb_gnt & ~req_mask) != 'd0) !== 1'b1
);`,
			},
			{
				ID: "arbiter_mask_7",
				NL: "that the masked request vector is the bitwise AND of requests and mask. Use the signals 'masked_req', 'tb_req', and 'req_mask'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  masked_req == (tb_req & req_mask)
);`,
			},
			{
				ID: "arbiter_mask_8",
				NL: "that with a zero mask the arbiter never grants. Use the signals 'req_mask' and 'tb_gnt'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (req_mask == 'd0) |-> (tb_gnt == 'd0)
);`,
			},
		}...),
	}
	return []*Testbench{rr, fixed, rev, mask}
}

// ---- FSMs (2 variations, 2 pairs each) ---------------------------------

func fsms() []*Testbench {
	handshake := &Testbench{
		Name: "fsm_handshake", Category: "FSM", Top: "fsm_hs_tb",
		Source: `
module fsm_hs_tb (clk, reset_, req, ack, fsm_state);
input clk;
input reset_;
input req;
input ack;
input [1:0] fsm_state;
wire tb_reset;
assign tb_reset = (reset_ == 1'b0);
parameter IDLE = 2'b00;
parameter WAIT = 2'b01;
parameter DONE = 2'b10;
reg [1:0] model_state;
always @(posedge clk) begin
  if (!reset_) model_state <= IDLE;
  else begin
    case (model_state)
      IDLE: if (req) model_state <= WAIT;
      WAIT: if (ack) model_state <= DONE;
      DONE: model_state <= IDLE;
      default: model_state <= IDLE;
    endcase
  end
end
endmodule
`,
		Pairs: []Pair{
			{
				ID: "fsm_handshake_0",
				NL: "that the handshake FSM only leaves IDLE on a request. Use the signals 'model_state' and 'req'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (model_state == 2'b00 && !req) |=> (model_state == 2'b00)
);`,
			},
			{
				ID: "fsm_handshake_1",
				NL: "that DONE always returns to IDLE on the next cycle. Use the signal 'model_state'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (model_state == 2'b10) |=> (model_state == 2'b00)
);`,
			},
		},
	}
	gray := &Testbench{
		Name: "fsm_gray", Category: "FSM", Top: "fsm_gray_tb",
		Source: `
module fsm_gray_tb (clk, reset_, en, gray_state);
input clk;
input reset_;
input en;
input [1:0] gray_state;
wire tb_reset;
assign tb_reset = (reset_ == 1'b0);
reg [1:0] model_gray;
always @(posedge clk) begin
  if (!reset_) model_gray <= 2'b00;
  else if (en) begin
    case (model_gray)
      2'b00: model_gray <= 2'b01;
      2'b01: model_gray <= 2'b11;
      2'b11: model_gray <= 2'b10;
      2'b10: model_gray <= 2'b00;
    endcase
  end
end
endmodule
`,
		Pairs: []Pair{
			{
				ID: "fsm_gray_0",
				NL: "that consecutive states of the gray-code FSM differ in exactly one bit when enabled. Use the signals 'model_gray' and 'en'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  en |=> ($countones(model_gray ^ $past(model_gray)) == 1)
);`,
			},
			{
				ID: "fsm_gray_1",
				NL: "that the gray-code FSM holds its state when not enabled. Use the signals 'model_gray' and 'en'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  !en |=> $stable(model_gray)
);`,
			},
		},
	}
	return []*Testbench{handshake, gray}
}

// ---- Counter (1 variation, 5 pairs) ------------------------------------

func counter() *Testbench {
	return &Testbench{
		Name: "counter", Category: "Counter", Top: "counter_tb",
		Source: `
module counter_tb (clk, reset_, en, clr, cnt_out);
input clk;
input reset_;
input en;
input clr;
input [3:0] cnt_out;
wire tb_reset;
assign tb_reset = (reset_ == 1'b0);
parameter MAX_COUNT = 4'd11;
reg [3:0] cnt;
always @(posedge clk) begin
  if (!reset_) cnt <= 'd0;
  else if (clr) cnt <= 'd0;
  else if (en) begin
    if (cnt == MAX_COUNT) cnt <= 'd0;
    else cnt <= cnt + 'd1;
  end
end
wire at_max;
assign at_max = (cnt == MAX_COUNT);
endmodule
`,
		Pairs: []Pair{
			{
				ID: "counter_0",
				NL: "that the counter never exceeds its maximum value. Use the signals 'cnt' and 'MAX_COUNT'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  cnt <= MAX_COUNT
);`,
			},
			{
				ID: "counter_1",
				NL: "that a clear forces the counter to zero on the next cycle. Use the signals 'clr' and 'cnt'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  clr |=> (cnt == 4'd0)
);`,
			},
			{
				ID: "counter_2",
				NL: "that the counter wraps to zero after reaching the maximum while enabled and not cleared. Use the signals 'at_max', 'en', 'clr', and 'cnt'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (at_max && en && !clr) |=> (cnt == 4'd0)
);`,
			},
			{
				ID: "counter_3",
				NL: "that the counter increments by one when enabled, below the maximum, and not cleared. Use the signals 'en', 'clr', 'at_max', and 'cnt'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (en && !clr && !at_max) |=> (cnt == ($past(cnt) + 4'd1))
);`,
			},
			{
				ID: "counter_4",
				NL: "that the counter holds its value when neither enabled nor cleared. Use the signals 'en', 'clr', and 'cnt'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (!en && !clr) |=> $stable(cnt)
);`,
			},
		},
	}
}

// ---- RAM (1 variation, 7 pairs) ----------------------------------------

func ram() *Testbench {
	return &Testbench{
		Name: "ram_1r1w", Category: "RAM", Top: "ram_tb",
		Source: `
module ram_tb (clk, reset_, wr_en, wr_addr, wr_data, rd_en, rd_addr, rd_data);
input clk;
input reset_;
input wr_en;
input [1:0] wr_addr;
input [3:0] wr_data;
input rd_en;
input [1:0] rd_addr;
input [3:0] rd_data;
wire tb_reset;
assign tb_reset = (reset_ == 1'b0);
reg [3:0] mem0;
reg [3:0] mem1;
reg [3:0] mem2;
reg [3:0] mem3;
always @(posedge clk) begin
  if (!reset_) mem0 <= 'd0;
  else if (wr_en && (wr_addr == 'd0)) mem0 <= wr_data;
end
always @(posedge clk) begin
  if (!reset_) mem1 <= 'd0;
  else if (wr_en && (wr_addr == 'd1)) mem1 <= wr_data;
end
always @(posedge clk) begin
  if (!reset_) mem2 <= 'd0;
  else if (wr_en && (wr_addr == 'd2)) mem2 <= wr_data;
end
always @(posedge clk) begin
  if (!reset_) mem3 <= 'd0;
  else if (wr_en && (wr_addr == 'd3)) mem3 <= wr_data;
end
wire [3:0] mem_out;
assign mem_out = (rd_addr == 'd0) ? mem0 :
                 (rd_addr == 'd1) ? mem1 :
                 (rd_addr == 'd2) ? mem2 : mem3;
wire collision;
assign collision = wr_en && rd_en && (wr_addr == rd_addr);
endmodule
`,
		Pairs: []Pair{
			{
				ID: "ram_0",
				NL: "that read data matches the stored memory word on a read without collision. Use the signals 'rd_en', 'collision', 'rd_data', and 'mem_out'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (rd_en && !collision) |-> (rd_data == mem_out)
);`,
			},
			{
				ID: "ram_1",
				NL: "that a write to address zero is visible on the next cycle. Use the signals 'wr_en', 'wr_addr', 'wr_data', and 'mem0'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (wr_en && (wr_addr == 2'd0)) |=> (mem0 == $past(wr_data))
);`,
			},
			{
				ID: "ram_2",
				NL: "that a memory word holds its value when no write targets it. Use the signals 'wr_en', 'wr_addr', and 'mem1'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (!wr_en || (wr_addr != 2'd1)) |=> $stable(mem1)
);`,
			},
			{
				ID: "ram_3",
				NL: "that a collision is flagged exactly when a read and a write hit the same address. Use the signals 'collision', 'wr_en', 'rd_en', 'wr_addr', and 'rd_addr'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  collision == (wr_en && rd_en && (wr_addr == rd_addr))
);`,
			},
			{
				ID: "ram_4",
				NL: "that the read mux selects the addressed word. Use the signals 'rd_addr', 'mem_out', and 'mem2'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (rd_addr == 2'd2) |-> (mem_out == mem2)
);`,
			},
			{
				ID: "ram_5",
				NL: "that a read is eventually issued after a write. Use the signals 'wr_en' and 'rd_en'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  wr_en |-> strong(##[0:$] rd_en)
);`,
			},
			{
				ID: "ram_6",
				NL: "that back-to-back writes to the same address keep only the newest data. Use the signals 'wr_en', 'wr_addr', 'wr_data', and 'mem3'.",
				Reference: `asrt: assert property (@(posedge clk) disable iff (tb_reset)
  (wr_en && (wr_addr == 2'd3) && $past(wr_en && (wr_addr == 2'd3))) |=> (mem3 == $past(wr_data))
);`,
			},
		},
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
