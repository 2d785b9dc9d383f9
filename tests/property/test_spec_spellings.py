"""Property: every spelling of a job is one job.

A spec's fingerprint keys the result cache, coalescing, the durable
store and the router's replica placement, so however a job is written —
flat keywords, the sectioned document, the flat document, with its
whole numbers as ints or as integral floats — it must read back as the
same spec, with the same fingerprint and hash.
"""

import itertools
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.persist import job_from_dict, job_to_dict
from repro.spec import MiningSpec

#: Keys whose values are not spec numbers: the schema tag and the
#: generator-specific dataset kwargs, which are passed on as given.
_AS_GIVEN = {"schema", "kwargs", "dataset_kwargs"}

whole_or_fraction = st.one_of(
    st.integers(1, 5).map(float), st.floats(0.01, 5.0)
)


@st.composite
def priors(draw):
    d = draw(st.integers(1, 3))
    mean = draw(st.lists(st.integers(-3, 3).map(float) | st.floats(-3.0, 3.0),
                         min_size=d, max_size=d))
    diag = draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
    cov = [[float(diag[i]) if i == j else 0.0 for j in range(d)] for i in range(d)]
    return {"mean": mean, "cov": cov}


#: Flat keywords of a valid spec, in their canonical types.
specs = st.fixed_dictionaries(
    {
        "dataset_seed": st.integers(0, 5),
        "n_split_points": st.integers(1, 6),
        "kind": st.sampled_from(["location", "spread"]),
        "n_iterations": st.integers(1, 3),
        "seed": st.integers(0, 2**31),
        "beam_width": st.integers(1, 64),
        "max_depth": st.integers(1, 6),
        "top_k": st.integers(1, 200),
        "min_coverage": st.integers(2, 20),
        "max_coverage_fraction": st.just(1.0) | st.floats(0.05, 1.0),
        "gamma": whole_or_fraction,
        "eta": whole_or_fraction,
        "priority": st.integers(-3, 3),
    },
    optional={
        "sparsity": st.just(2),
        "time_budget_seconds": whole_or_fraction,
        "deadline": whole_or_fraction,
        "prior": priors(),
        "weights": st.lists(whole_or_fraction, min_size=1, max_size=4),
    },
)


def respell(node, flip):
    """``node`` with each number written the other way where ``flip()`` says.

    An int becomes the equal float and an integral float the equal int;
    a fraction stays as it is.
    """
    if isinstance(node, dict):
        return {
            key: value if key in _AS_GIVEN else respell(value, flip)
            for key, value in node.items()
        }
    if isinstance(node, list):
        return [respell(value, flip) for value in node]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return node
    if isinstance(node, int):
        return float(node) if flip() else node
    return int(node) if node.is_integer() and flip() else node


@given(kwargs=specs, flips=st.lists(st.booleans(), min_size=1, max_size=16))
@example(  # -0.0, respelled as the int 0, in a float field and in the prior
    kwargs={
        "dataset_seed": 0, "n_split_points": 1, "kind": "location", "n_iterations": 1,
        "seed": 0, "beam_width": 1, "max_depth": 1, "top_k": 1, "min_coverage": 2,
        "max_coverage_fraction": 1.0, "gamma": -0.0, "eta": 1.0, "priority": 0,
        "prior": {"mean": [0.0, -0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
    },
    flips=[True],
)
@settings(max_examples=40, deadline=None)
def test_every_spelling_is_one_job(kwargs, flips):
    cycle = itertools.cycle(flips)

    def flip():
        return next(cycle)

    spec = MiningSpec.build("synthetic", **kwargs)
    spellings = [
        MiningSpec.build("synthetic", **respell(kwargs, flip)),
        MiningSpec.from_dict(spec.to_dict()),
        job_from_dict(job_to_dict(spec)),
        MiningSpec.from_dict(respell(spec.to_dict(), flip)),
        job_from_dict(respell(job_to_dict(spec), flip)),
    ]
    document = json.dumps(spec.to_dict())
    for other in spellings:
        assert other == spec
        assert other.fingerprint() == spec.fingerprint()
        assert hash(other) == hash(spec)
        assert json.dumps(other.to_dict()) == document
