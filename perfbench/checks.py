"""Output checks.  A failed check is counted by kind and never aborts a run."""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

AGREE_TOL = 1e-9
PRICE_TOL = 1e-12

CHECK_KINDS = (
    "raised",  # the request, or reading its output, raised
    "exit_code",  # the CLI exited with a code other than 0
    "records",  # the CLI's output records are malformed
    "dp_fast_agree",  # dp and fast values differ by more than AGREE_TOL
    "evaluate_exact",  # evaluate() on the returned order gives another value
    "zero_click",  # a winner has click probability 0
    "payment_nonneg",  # a VCG payment is below -PRICE_TOL
    "price_le_bid",  # a per-click price exceeds the bid by more than PRICE_TOL
    "gsp_le_opt",  # compare_gsp's optimum differs from solve's, or GSP beats it
)


class Checks:
    """Failure counts by check kind, plus requests attempted and failed."""

    def __init__(self) -> None:
        self.failed = dict.fromkeys(CHECK_KINDS, 0)
        self.attempted = 0
        self.requests_failed = 0

    def expect(self, kind: str, ok: bool) -> bool:
        if not ok:
            self.failed[kind] += 1
        return ok

    def slate(
        self,
        order: Sequence[int],
        efficiency: float,
        click_probs: Sequence[float],
        bidders: Mapping[int, object],
        reference: float,
        evaluate: Callable,
    ) -> bool:
        """dp and fast agree, ``evaluate`` reproduces the value, no zero-click winner."""
        ok = self.expect("dp_fast_agree", abs(efficiency - reference) <= AGREE_TOL)
        try:
            value, _ = evaluate([bidders[i] for i in order])
        except (KeyError, ValueError):
            value = None
        ok &= self.expect("evaluate_exact", value == efficiency)
        ok &= self.expect("zero_click", len(click_probs) == len(order) and all(p > 0.0 for p in click_probs))
        return ok

    def prices(self, winners: Iterable[tuple[int, float, float]], bidders: Mapping[int, object]) -> bool:
        """Each ``(bidder, payment, per_click_price)``: payment >= 0, price <= bid."""
        ok = True
        for bidder, payment, per_click in winners:
            ok &= self.expect("payment_nonneg", payment >= -PRICE_TOL)
            ok &= self.expect("price_le_bid", per_click <= bidders[bidder].bid + PRICE_TOL)
        return ok
