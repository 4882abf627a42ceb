"""Fig. 7(b): NER top words per type.

Runs CoEM to convergence on the synthetic corpus and prints the
strongest noun-phrases per type — the analog of the paper's
food/religion table. Checks that the recovered vocabulary matches the
generative types.
"""

from repro.apps import (
    labeling_accuracy,
    make_coem_update,
    phrase_labels,
    top_words_per_type,
)
from repro.figures import Figure
from repro.core import SequentialEngine
from repro.datasets import TYPE_VOCABULARY, synthetic_ner

TOP_K = 5


def run_experiment():
    data = synthetic_ner(
        phrases_per_type=30, num_contexts=120, edges_per_phrase=12, seed=4
    )
    update = make_coem_update(data.seeds)
    engine = SequentialEngine(
        data.graph, update, scheduler="fifo", max_updates=200000
    )
    result = engine.run(initial=data.graph.vertices())
    top = top_words_per_type(data.graph, data.types, k=TOP_K)
    labels = phrase_labels(data.graph)
    accuracy = labeling_accuracy(labels, data.truth)
    fig = Figure(
        figure_id="fig7b",
        title="NER: top noun-phrases per type (CoEM)",
        x_label="rank",
        x_values=list(range(1, TOP_K + 1)),
    )
    for type_name, words in top.items():
        fig.add(type_name, [w for (w, _score) in words])
    fig.note(f"labeling accuracy over all noun-phrases: {accuracy:.1%}")
    return fig, top, accuracy, result


def test_fig7b_top_words():
    fig, top, accuracy, result = run_experiment()
    print("\n" + fig.render())
    fig.save()
    assert result.converged
    assert accuracy > 0.9
    # The top words per type really belong to that type's vocabulary
    # (allow suffixed variants like "onion_2").
    for type_name, words in top.items():
        vocab = set(TYPE_VOCABULARY[type_name])
        hits = sum(
            1 for (word, _s) in words if word.split("_")[0] in vocab
        )
        assert hits >= TOP_K - 1, (type_name, words)
