"""The public API's settable values, found by introspecting ``psdfit``."""

import dataclasses
import inspect

import psdfit


def settable_values():
    """Sorted "owner.name" of every defaulted parameter of a public
    function or method and every defaulted init field of a dataclass,
    over ``psdfit.__all__``; exceptions are left out."""
    found = set()
    for name in psdfit.__all__:
        obj = getattr(psdfit, name)
        if inspect.isfunction(obj):
            functions = [obj]
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            functions = [getattr(value, "__func__", value)
                         for klass in obj.__mro__[:-1]
                         for attr, value in vars(klass).items()
                         if not attr.startswith("_")
                         or (attr == "__init__" and not dataclasses.is_dataclass(obj))]
            if dataclasses.is_dataclass(obj):
                found.update(f"{obj.__name__}.{f.name}"
                             for f in dataclasses.fields(obj) if f.init
                             and (f.default is not dataclasses.MISSING
                                  or f.default_factory is not dataclasses.MISSING))
        else:
            continue
        for fn in functions:
            if inspect.isfunction(fn):
                found.update(f"{fn.__qualname__}.{p.name}"
                             for p in inspect.signature(fn).parameters.values()
                             if p.default is not inspect.Parameter.empty)
    return sorted(found)


def test_settable_values_are_pinned():
    # a new default here is a new knob every caller can turn: add it on purpose
    assert settable_values() == [
        "ExperimentConfig.order",
        "ExperimentConfig.seed",
        "ExperimentConfig.spacing",
        "ReturnsMatrix.dropped",
        "build_unet.spacing",
        "correlation_spectrum.spikes",
        "run_analysis.bandwidth",
        "run_analysis.spacing",
        "run_analysis.spikes",
        "run_experiment.n_jobs",
    ]


def test_each_public_name_is_declared_once():
    # psdfit re-publishes its modules' __all__ by wildcard import, so a name
    # in two of them would be shadowed without a word by the later one
    assert len(set(psdfit.__all__)) == len(psdfit.__all__)
    assert all(hasattr(psdfit, name) for name in psdfit.__all__)
