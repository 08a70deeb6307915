"""Fig 7: ViaBTC's PPE is measured wherever ViaBTC ranks by hash rate."""

import numpy as np

from repro.analysis import fig7_ppe
from repro.analysis.base import DataContext
from repro.core.audit import Auditor

VIABTC_CHECK = "ViaBTC deviates more from the norm than its peers"


def test_viabtc_ranked_seventh_is_still_measured(small_dataset_c, monkeypatch):
    estimates = small_dataset_c.hash_rates()
    viabtc = next(e for e in estimates if e.pool == "ViaBTC")
    named = [e for e in estimates if e.pool not in ("ViaBTC", "unknown")]
    unknown = [e for e in estimates if e.pool == "unknown"]
    reordered = named[:6] + [viabtc] + named[6:] + unknown
    monkeypatch.setattr(small_dataset_c, "hash_rates", lambda: reordered)

    result = fig7_ppe.run(DataContext(scale=0.08, _cache={"C": small_dataset_c}))

    values = [
        r.ppe for r in Auditor(small_dataset_c).ppe_by_pool(["ViaBTC"])["ViaBTC"]
    ]
    assert values
    assert result.measured["viabtc_mean"] == round(float(np.mean(values)), 3)
    # The Fig 7b table stays the top six; ViaBTC is not among them.
    table_7b = result.rendered.split("Fig 7b")[1]
    assert "ViaBTC" not in table_7b
    assert all(e.pool in table_7b for e in named[:6])
    check = next(c for c in result.checks if c.description == VIABTC_CHECK)
    assert "ViaBTC=nan" not in check.detail
