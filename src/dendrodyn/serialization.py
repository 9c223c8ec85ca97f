"""JSON schemas for dendrites, points, homeomorphisms, measures and reports.

Rationals are serialized as fraction strings ("3/4", "2"); vertex and edge
ids pass through unchanged (strings or integers).
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from .dendrite import Dendrite, DPoint, VertexPoint
from .errors import ConfigInvalid
from .homeo import Homeo, PLMap
from .measure import PLMeasure
from .util import frac, frac_str, id_key


@contextmanager
def decoding(what: str):
    """Decode a document from outside the program; a malformed one is a config error.

    Dendrodyn errors raised while decoding pass through unchanged.  Every
    ``*_from_json`` below runs under it (as a decorator).
    """
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigInvalid(f"malformed {what} document: {exc!r}") from None


def _unique(pairs, what: str) -> dict:
    """The mapping of ``(key, value)`` pairs; a repeated key is a config error."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigInvalid(f"repeated {what} {key!r}")
        out[key] = value
    return out


def dendrite_to_json(dendrite: Dendrite) -> dict:
    doc = {
        "vertices": sorted(dendrite.vertices, key=id_key),
        "edges": [{"id": e.eid, "u": e.u, "v": e.v, "level": e.level}
                  for e in dendrite.edges],
    }
    if dendrite._weight_rule == "dyadic":
        doc["weight_rule"] = "dyadic"
    else:
        doc["weight_rule"] = {"custom": [frac_str(e.weight) for e in dendrite.edges]}
    return doc


@decoding("dendrite")
def dendrite_from_json(doc: dict) -> Dendrite:
    vertices = doc["vertices"]
    edges = [(e["id"], e["u"], e["v"], e.get("level", i + 1))
             for i, e in enumerate(doc["edges"])]
    rule = doc.get("weight_rule", "dyadic")
    if rule == "dyadic":
        return Dendrite(vertices, edges, "dyadic")
    if isinstance(rule, dict) and "custom" in rule:
        raw = rule["custom"]
        # accept both flat ["p/q", ...] and nested [["p/q"], ...] spellings
        weights = [frac(w[0] if isinstance(w, list) else w) for w in raw]
        return Dendrite(vertices, edges, weights)
    raise ConfigInvalid(f"unknown weight rule {rule!r}")


def point_to_json(p: DPoint) -> dict:
    if isinstance(p, VertexPoint):
        return {"vertex": p.vertex}
    return {"edge": p.edge, "t": frac_str(p.t)}


@decoding("point")
def point_from_json(doc: dict, dendrite: Dendrite) -> DPoint:
    if "vertex" in doc:
        return dendrite.vertex_point(doc["vertex"])
    if "edge" in doc:
        return dendrite.point(doc["edge"], frac(doc["t"]))
    raise ConfigInvalid(f"malformed point document: {doc!r}")


def _plmap_to_json(plm: PLMap) -> dict:
    return {"x": [frac_str(x) for x in plm.xs], "y": [frac_str(y) for y in plm.ys]}


def _plmap_from_json(doc: dict) -> PLMap:
    return PLMap([frac(x) for x in doc["x"]], [frac(y) for y in doc["y"]])


def homeo_to_json(h: Homeo) -> dict:
    X = h.dendrite
    single = len(X.edges) == 1
    if single:
        e = X.edges[0]
        tgt, plm = h.edge_map[e.eid]
        if tgt == e.eid:
            return {"interval_pl": _plmap_to_json(plm)}
    return {"tree_auto": {
        "vertex_map": [[k, v] for k, v in sorted(h.vertex_map.items(),
                                                 key=lambda kv: id_key(kv[0]))],
        "edge_maps": [{"edge": eid, "target": tgt, "map": _plmap_to_json(plm)}
                      for eid, (tgt, plm) in sorted(h.edge_map.items(),
                                                    key=lambda kv: id_key(kv[0]))],
    }}


@decoding("homeo")
def homeo_from_json(doc: dict, dendrite: Dendrite) -> Homeo:
    if "interval_pl" in doc:
        from .homeo import interval_homeo
        plm = doc["interval_pl"]
        return interval_homeo(dendrite, [frac(x) for x in plm["x"]],
                              [frac(y) for y in plm["y"]])
    if "tree_auto" in doc:
        body = doc["tree_auto"]
        vm = _unique(body["vertex_map"], "vertex_map source")
        em = _unique(((row["edge"], (row["target"], _plmap_from_json(row["map"])))
                      for row in body["edge_maps"]), "edge_maps edge")
        return Homeo(dendrite, vm, em)
    raise ConfigInvalid(f"malformed homeomorphism document: {doc!r}")


def measure_to_json(mu: PLMeasure) -> dict:
    return {
        "atoms": [{"point": point_to_json(p), "w": frac_str(w)} for p, w in mu.atoms],
        "edges": [{"id": eid,
                   "pieces": [{"a": frac_str(a), "b": frac_str(b),
                               "density": frac_str(r)} for a, b, r in pieces]}
                  for eid, pieces in mu.densities.items()],
        "norm": frac_str(mu.norm),
    }


@decoding("measure")
def measure_from_json(doc: dict, dendrite: Dendrite) -> PLMeasure:
    atoms = [(point_from_json(row["point"], dendrite), frac(row["w"]))
             for row in doc.get("atoms", ())]
    densities = _unique(((row["id"], [(frac(p["a"]), frac(p["b"]), frac(p["density"]))
                                      for p in row["pieces"]])
                         for row in doc.get("edges", ())), "measure edge id")
    return PLMeasure(dendrite, atoms, densities, norm=frac(doc.get("norm", 1)))


def certificate_to_json(cert) -> dict:
    doc = {
        "levels": [{"n": lvl.index, "mesh": frac_str(lvl.mesh),
                    "equivariant": lvl.equivariant, "strict": lvl.strict,
                    "cells": lvl.cell_count}
                   for lvl in cert.levels],
        "delta_table": [[frac_str(eps), frac_str(delta)]
                        for eps, delta in cert.delta_table],
        "verdict": cert.verdict,
        "explanation": cert.explanation,
    }
    if cert.witness is not None:
        sym, sign, anchor = cert.witness
        doc["witness"] = {"generator": sym, "sign": sign,
                          "anchor": point_to_json(anchor)}
    return doc


def dump_json(doc, path):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
